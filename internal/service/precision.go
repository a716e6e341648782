package service

// Per-table precision knob: the operator-facing end of the precision
// ladder. A table's precision declares how much result drift its joins
// tolerate; when two tables join, the coarser declaration wins (a table
// opted into int8 does not force exactness on its partner — the partner's
// knob would have demanded it). The knob applies to threshold scan joins;
// top-k conditions rank by exact similarity and index probes rank inside
// the index, so both stay exact regardless.

import (
	"fmt"
	"strings"
	"sync"

	"ejoin/internal/quant"
)

// tablePrecisions tracks the per-table knob, keyed by the catalog's
// canonical (lowercase) name.
type tablePrecisions struct {
	mu sync.RWMutex
	m  map[string]quant.Precision
}

func (tp *tablePrecisions) get(name string) quant.Precision {
	tp.mu.RLock()
	defer tp.mu.RUnlock()
	return tp.m[strings.ToLower(name)]
}

func (tp *tablePrecisions) set(name string, p quant.Precision) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.m == nil {
		tp.m = make(map[string]quant.Precision)
	}
	name = strings.ToLower(name)
	if p == quant.PrecisionAuto {
		delete(tp.m, name)
		return
	}
	tp.m[name] = p
}

func (tp *tablePrecisions) drop(name string) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	delete(tp.m, strings.ToLower(name))
}

func (tp *tablePrecisions) snapshot() map[string]string {
	tp.mu.RLock()
	defer tp.mu.RUnlock()
	if len(tp.m) == 0 {
		return nil
	}
	out := make(map[string]string, len(tp.m))
	for k, v := range tp.m {
		out[k] = v.String()
	}
	return out
}

// SetTablePrecision sets (or, with PrecisionAuto, clears) the named
// table's join precision. On a durable engine the knob is recorded in
// the table manifest, so it survives restarts.
func (e *Engine) SetTablePrecision(name string, p quant.Precision) error {
	if !e.HasTable(name) {
		return fmt.Errorf("service: unknown table %q", name)
	}
	e.tablePrec.set(name, p)
	return e.persistTablePrecision(name, p)
}

// TablePrecision returns the named table's declared precision
// (PrecisionAuto when unset).
func (e *Engine) TablePrecision(name string) quant.Precision {
	return e.tablePrec.get(name)
}

// precisionRank orders the ladder by coarseness for the coarser-wins
// merge of two tables' declarations.
func precisionRank(p quant.Precision) int {
	switch p {
	case quant.PrecisionF16:
		return 1
	case quant.PrecisionInt8:
		return 2
	default:
		return 0 // auto / f32
	}
}

// JoinPrecision merges two joined tables' declarations: the coarser knob
// wins; both unset leaves Auto, which executes as F32.
func (e *Engine) JoinPrecision(leftTable, rightTable string) quant.Precision {
	l, r := e.tablePrec.get(leftTable), e.tablePrec.get(rightTable)
	if l == quant.PrecisionAuto && r == quant.PrecisionAuto {
		return quant.PrecisionAuto
	}
	if precisionRank(r) > precisionRank(l) {
		return r
	}
	if l == quant.PrecisionAuto {
		return r
	}
	return l
}
