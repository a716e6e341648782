// Package bench is the experiment harness: one registered experiment per
// table/figure of the paper's evaluation (Section VI), each regenerating
// the same rows/series the paper reports, at host-scaled input sizes.
//
// The paper's testbed is a 2-socket, 48-thread Xeon with MKL and Milvus;
// this harness runs the Go reproduction on whatever host it gets, so
// absolute numbers differ. What must hold is the shape: who wins, by
// roughly what factor, and where crossovers fall (README, "Benchmarks").
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Config scales and seeds experiments.
type Config struct {
	// Scale multiplies base input sizes (1.0 = laptop-scale defaults;
	// ~100 approaches paper sizes).
	Scale float64
	// Threads caps operator parallelism; <=0 uses GOMAXPROCS.
	Threads int
	// Seed drives all workload generation.
	Seed int64
	// Quick shrinks sizes further for CI/tests.
	Quick bool
}

// DefaultConfig returns the standard laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Scale: 1, Threads: runtime.GOMAXPROCS(0), Seed: 42}
}

// size applies Scale/Quick to a base input size.
func (c Config) size(n int) int {
	f := c.Scale
	if f <= 0 {
		f = 1
	}
	if c.Quick {
		f /= 8
	}
	v := int(float64(n) * f)
	if v < 4 {
		v = 4
	}
	return v
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig8").
	Name string
	// Paper is the table/figure reference (e.g. "Figure 8").
	Paper string
	// Description says what the experiment demonstrates.
	Description string
	// Run executes the experiment, writing its rows to w.
	Run func(w io.Writer, cfg Config) error
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		expTable1(),
		expTable2(),
		expCostModel(),
		expFig8(),
		expFig9(),
		expFig10(),
		expFig11(),
		expFig12(),
		expFig13(),
		expFig14(),
		expFig15(),
		expFig16(),
		expFig17(),
		expFP16(),
		expModelCache(),
		expBlockSize(),
		expHNSWRecall(),
		expIVF(),
	}
}

// Get returns the named experiment.
func Get(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment against w.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range Registry() {
		if err := RunOne(w, e, cfg); err != nil {
			return fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return nil
}

// RunOne executes a single experiment with its banner.
func RunOne(w io.Writer, e Experiment, cfg Config) error {
	fmt.Fprintf(w, "\n=== %s (%s) ===\n%s\n\n", e.Paper, e.Name, e.Description)
	start := time.Now()
	if err := e.Run(w, cfg); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n[%s completed in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

// timed measures one function call.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// table accumulates aligned text output.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table {
	return &table{headers: headers}
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) print(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	io.WriteString(w, b.String())
}

// ms formats a duration in milliseconds with one decimal.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// nsPerElem formats nanoseconds per element.
func nsPerElem(d time.Duration, elems int64) string {
	if elems == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/float64(elems))
}

// ratio formats a/b with two decimals.
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
