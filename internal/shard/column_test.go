package shard

// The embedded column against the oracle: queries race upserts, deletes
// and snapshots on an Engine and on a 2-shard Router, and every reply is
// checked by internal/oracle against a version of the table that was
// current while the query ran; a reboot must then serve the last version.
// Table sizes straddle the column-chunk boundaries (embstore.ChunkRows) and
// block sizes run from one row to the whole probe side. On the Engine, a
// filtered plan run through the plan layer over the pinned tables races
// the same chunks. Threshold queries at a declared f16 or int8 precision
// on l race the same mutations and are held to their rung's error bound.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/oracle"
	"ejoin/internal/plan"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/vec"
)

var colSchema = relational.Schema{
	{Name: "id", Type: relational.Int64},
	{Name: "name", Type: relational.String},
	{Name: "attr", Type: relational.Int64},
}

var colVocab = strings.Fields("amber birch cedar delta ember fjord grove harbor island juniper kettle lantern")

// colRow is one generated row; names repeat, so joins have exact matches.
type colRow struct {
	id   int64
	name string
	attr int64
}

func randRow(rng *rand.Rand, id int64) colRow {
	return colRow{id: id, name: colVocab[rng.Intn(len(colVocab))] + " " + colVocab[rng.Intn(len(colVocab))], attr: int64(rng.Intn(100))}
}

// colTable builds rows under colSchema; it is called from the test's
// goroutines, so a schema bug panics instead of calling t.Fatal.
func colTable(rows []colRow) *relational.Table {
	ids := make(relational.Int64Column, len(rows))
	names := make(relational.StringColumn, len(rows))
	attrs := make(relational.Int64Column, len(rows))
	for i, r := range rows {
		ids[i], names[i], attrs[i] = r.id, r.name, r.attr
	}
	tbl, err := relational.NewTable(colSchema, []relational.Column{ids, names, attrs})
	if err != nil {
		panic(err)
	}
	return tbl
}

func colCSV(rows []colRow) string {
	var b strings.Builder
	b.WriteString("id,name,attr\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d,%s,%d\n", r.id, r.name, r.attr)
	}
	return b.String()
}

// colModel is the mutated table as the test expects it: its physical rows
// in insertion order (the row ids replies name) and, per published
// version, those rows and which of them are live. An Engine's table
// compacts like mutation.Table does, so its model does too; a Router's
// shards never compact, and its replies name global ids.
type colModel struct {
	mu       sync.Mutex
	compacts bool
	rows     []colRow
	versions []colVersion // versions[k] is the state after k mutations
	live     map[int64]int
}

type colVersion struct {
	rows []colRow
	live []bool
}

func newColModel(rows []colRow, compacts bool) *colModel {
	m := &colModel{rows: rows, compacts: compacts, live: make(map[int64]int)}
	v := colVersion{rows: rows, live: make([]bool, len(rows))}
	for i, r := range rows {
		m.live[r.id] = i
		v.live[i] = true
	}
	m.versions = []colVersion{v}
	return m
}

// apply records the version one mutation will publish: upserted rows are
// appended (tombstoning the live row holding their key, an earlier row of
// the batch included), deleted keys tombstoned, and the table compacted to
// its live rows once they are fewer than the dead ones and those number at
// least 256.
func (m *colModel) apply(upsert []colRow, del []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.versions[len(m.versions)-1]
	v := colVersion{live: append([]bool(nil), prev.live...)}
	for _, r := range upsert {
		if old, ok := m.live[r.id]; ok {
			v.live[old] = false
		}
		m.live[r.id] = len(m.rows)
		m.rows = append(m.rows, r)
		v.live = append(v.live, true)
	}
	for _, id := range del {
		if old, ok := m.live[id]; ok {
			v.live[old] = false
			delete(m.live, id)
		}
	}
	if dead := len(m.rows) - len(m.live); m.compacts && dead >= 256 && dead > len(m.live) {
		var kept []colRow
		for i, r := range m.rows {
			if v.live[i] {
				m.live[r.id] = len(kept)
				kept = append(kept, r)
			}
		}
		m.rows = kept
		v.live = make([]bool, len(kept))
		for i := range v.live {
			v.live[i] = true
		}
	}
	v.rows = m.rows[:len(m.rows):len(m.rows)]
	m.versions = append(m.versions, v)
}

// side is version k of the table as the oracle's left input.
func (m *colModel) side(k int, preds []relational.Pred) oracle.Side {
	m.mu.Lock()
	v := m.versions[k]
	m.mu.Unlock()
	vis := relational.Selection{}
	for i, ok := range v.live {
		if ok {
			vis = append(vis, i)
		}
	}
	return oracle.Side{Table: colTable(v.rows), Text: "name", Visible: vis, Preds: preds}
}

// liveIDs is a seeded pick of up to n live keys.
func (m *colModel) liveIDs(rng *rand.Rand, n int) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int64, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	for i := range ids { // map order is random: sort before the seeded shuffle
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	return ids[:min(n, len(ids))]
}

// memoModel is the oracle's embedder: the engines' model, memoized, so
// checking many versions does not re-embed every row each time.
type memoModel struct {
	model.Model
	mu   sync.Mutex
	seen map[string][]float32
}

func (m *memoModel) Embed(s string) ([]float32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.seen[s]; ok {
		return v, nil
	}
	v, err := m.Model.Embed(s)
	m.seen[s] = v
	return v, err
}

type colQuery struct {
	sql   string
	spec  oracle.Spec
	preds []relational.Pred
	// prec, when not Auto, is declared on l while the query runs.
	prec quant.Precision
}

// colDim is the test model's dimensionality.
const colDim = 16

// tolerance is how far a reply's similarities may sit from the oracle's
// at the query's precision: the rung's error bound for unit-norm inputs
// (int8's worst case, per-vector scales of at most 1/127) plus float32
// rounding.
func (q colQuery) tolerance() float64 {
	switch q.prec {
	case quant.PrecisionF16:
		return quant.PrecisionF16.DotErrorBound(colDim) + 1e-5
	case quant.PrecisionInt8:
		return float64(quant.Int8DotErrorBound(colDim, 1.0/127, 1.0/127)) + 1e-5
	}
	return 1e-5
}

func TestColumnRacesOracle(t *testing.T) {
	base, err := model.NewHashEmbedder(colDim)
	if err != nil {
		t.Fatal(err)
	}
	memo := &memoModel{Model: base, seen: make(map[string][]float32)}
	attrLT := []relational.Pred{{Column: "attr", Op: relational.LT, Value: int64(50)}}
	queries := []colQuery{
		{sql: "SELECT * FROM l JOIN r ON SIM(l.name, r.name) >= 0.7", spec: oracle.Spec{Threshold: 0.7}},
		{sql: "SELECT * FROM l JOIN r ON TOPK(l.name, r.name, 2)", spec: oracle.Spec{K: 2, Threshold: -2}},
		{sql: "SELECT * FROM l JOIN r ON SIM(l.name, r.name) >= 0.7 WHERE l.attr < 50", spec: oracle.Spec{Threshold: 0.7}, preds: attrLT},
		{sql: "SELECT * FROM l JOIN r ON SIM(l.name, r.name) >= 0.7", spec: oracle.Spec{Threshold: 0.7}, prec: quant.PrecisionF16},
		{sql: "SELECT * FROM l JOIN r ON SIM(l.name, r.name) >= 0.7", spec: oracle.Spec{Threshold: 0.7}, prec: quant.PrecisionInt8},
	}
	const c = embstore.ChunkRows
	sizes := []int{0, 1, c - 1, c, c + 1, 2*c + 1}
	blocks := []int{1, 16, 4096}
	for i, size := range sizes {
		block := blocks[i%len(blocks)]
		for _, shards := range []int{0, 2} {
			name := fmt.Sprintf("rows=%d/block=%d/shards=%d", size, block, shards)
			t.Run(name, func(t *testing.T) {
				runColumnRace(t, memo, queries, size, block, shards, int64(i))
			})
		}
	}
}

func runColumnRace(t *testing.T, memo *memoModel, queries []colQuery, size, block, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	left := make([]colRow, size)
	for i := range left {
		left[i] = randRow(rng, int64(i))
	}
	right := make([]colRow, 40)
	for i := range right {
		right[i] = randRow(rng, int64(i))
	}
	rightSide := oracle.Side{Table: colTable(right), Text: "name"}
	mdl := newColModel(left, shards == 0)
	nextID := int64(size)

	dir := t.TempDir()
	cfg := service.Config{Model: memo.Model, DataDir: dir, ExecBlockRows: block, Threads: 2}
	var eng *service.Engine
	var rt *Router
	var query func(context.Context, service.QueryRequest) (*service.QueryResult, error)
	var upsert func(context.Context, string, string, *relational.Table) (service.MutationResult, error)
	var del func(context.Context, string, string, []string) (service.MutationResult, error)
	var snapshot func() error
	var setPrecision func(string, quant.Precision) error
	open := func() {
		t.Helper()
		var err error
		if shards == 0 {
			if eng, err = service.Open(cfg); err != nil {
				t.Fatal(err)
			}
			query, upsert, del, setPrecision = eng.Query, eng.UpsertRows, eng.DeleteRows, eng.SetTablePrecision
			snapshot = func() error { _, err := eng.Snapshot(); return err }
			return
		}
		if rt, err = Open(Config{Shards: shards, Partitioner: "hash", Engine: cfg}); err != nil {
			t.Fatal(err)
		}
		query, upsert, del, setPrecision = rt.Query, rt.UpsertRows, rt.DeleteRows, rt.SetTablePrecision
		snapshot = func() error { _, err := rt.Snapshot(); return err }
	}
	closeAll := func() {
		if eng != nil {
			if err := eng.Close(); err != nil {
				t.Error(err)
			}
		}
		if rt != nil {
			if err := rt.Close(); err != nil {
				t.Error(err)
			}
		}
	}
	open()
	defer func() { closeAll() }()
	for name, rows := range map[string][]colRow{"l": left, "r": right} {
		var err error
		if shards == 0 {
			_, err = eng.RegisterCSV(name, colSchema, strings.NewReader(colCSV(rows)), false)
		} else {
			_, err = rt.RegisterCSVWithPrecision(name, colSchema, strings.NewReader(colCSV(rows)), false, quant.PrecisionAuto)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// The mutator records each version in mdl before sending the mutation
	// and counts it in published after the backend applied it: a query that
	// began when k versions were published and ended when the model held j
	// may have pinned any version in [k, j].
	var published atomic.Int64
	check := func(q colQuery, res *service.QueryResult, lo, hi int) {
		got := oracleMatches(res.Matches)
		var last error
		for k := hi; k >= lo; k-- {
			ans, err := oracle.Join(memo, mdl.side(k, q.preds), rightSide, q.spec)
			if err != nil {
				t.Error(err)
				return
			}
			if last = ans.Check(got, q.tolerance(), 1); last == nil {
				return
			}
		}
		t.Errorf("%q matches no version in [%d, %d]: %v", q.sql, lo, hi, last)
	}
	recorded := func() int {
		mdl.mu.Lock()
		defer mdl.mu.Unlock()
		return len(mdl.versions) - 1
	}
	runQuery := func(ctx context.Context, q colQuery) {
		lo := int(published.Load())
		res, err := query(ctx, service.QueryRequest{SQL: q.sql})
		if err != nil {
			t.Error(err)
			return
		}
		want := quant.PrecisionF32
		if q.prec != quant.PrecisionAuto {
			want = q.prec
		}
		if res.Precision != want.String() {
			t.Errorf("%q at %v executed at %q", q.sql, q.prec, res.Precision)
		}
		check(q, res, lo, recorded())
	}
	// A declared precision belongs to the table, not the query: l's
	// declaration changes only under precMu held exclusively, and every
	// other query holds it shared, so it runs at F32.
	var precMu sync.RWMutex
	runDeclared := func(ctx context.Context) {
		precMu.Lock()
		defer precMu.Unlock()
		for _, q := range queries {
			if q.prec == quant.PrecisionAuto {
				continue
			}
			if err := setPrecision("l", q.prec); err != nil {
				t.Error(err)
				return
			}
			runQuery(ctx, q)
		}
		if err := setPrecision("l", quant.PrecisionAuto); err != nil {
			t.Error(err)
		}
	}

	ctx := context.Background()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the mutator
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if i == 2 {
					if err := snapshot(); err != nil {
						t.Error(err)
					}
				}
				// The router pins its shards one at a time, so a mutation
				// spanning shards could be seen half applied; there every
				// mutation touches one key, which lives on one shard.
				overwrites, fresh, deletes := 2, 3, 2
				if shards > 0 {
					overwrites, fresh, deletes = i%2, 1-i%2, 1
				}
				var batch []colRow
				for _, id := range mdl.liveIDs(rng, overwrites) {
					batch = append(batch, randRow(rng, id))
				}
				for j := 0; j < fresh; j++ {
					batch = append(batch, randRow(rng, nextID))
					nextID++
				}
				if shards == 0 {
					// Rewrites of one key within the batch: each but the
					// last is dead on arrival, so the Engine's table
					// crosses the compaction line at every size.
					for j := 0; j < 40+size/8; j++ {
						batch = append(batch, randRow(rng, nextID))
					}
					nextID++
				}
				mdl.apply(batch, nil)
				if _, err := upsert(ctx, "l", "id", colTable(batch)); err != nil {
					t.Error(err)
					return
				}
				published.Add(1)
				ids := mdl.liveIDs(rng, deletes)
				keys := make([]string, len(ids))
				for j, id := range ids {
					keys[j] = strconv.FormatInt(id, 10)
				}
				mdl.apply(nil, ids)
				if _, err := del(ctx, "l", "id", keys); err != nil {
					t.Error(err)
					return
				}
				published.Add(1)
			}
		}()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					for _, q := range queries {
						if q.prec == quant.PrecisionAuto {
							precMu.RLock()
							runQuery(ctx, q)
							precMu.RUnlock()
						}
					}
				}
			}()
		}
		if round == 0 {
			// Declaring serializes every other query behind it, so it runs
			// once.
			wg.Add(1)
			go func() {
				defer wg.Done()
				runDeclared(ctx)
			}()
		}
		if eng != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runPinnedPlan(t, eng, memo, queries[2], block)
			}()
		}
		wg.Wait()
	}

	if eng != nil && eng.Stats().Mutation.Compactions == 0 {
		t.Error("the Engine's table never compacted")
	}

	// Reboot: the last version, served from recovered state.
	closeAll()
	eng, rt = nil, nil
	open()
	last := recorded()
	for _, q := range queries {
		if q.prec != quant.PrecisionAuto {
			continue
		}
		res, err := query(ctx, service.QueryRequest{SQL: q.sql})
		if err != nil {
			t.Fatal(err)
		}
		check(q, res, last, last)
	}
}

// runPinnedPlan executes q's join over the engine's pinned tables through
// the plan layer and checks the result against the oracle for exactly
// that pin.
func runPinnedPlan(t *testing.T, eng *service.Engine, memo *memoModel, q colQuery, block int) {
	pl, _ := eng.PinnedTable("l")
	pr, _ := eng.PinnedTable("r")
	pq := plan.Query{
		Left:  pl.Bind(plan.TableRef{Name: "l", TextColumn: "name", Predicates: q.preds}),
		Right: pr.Bind(plan.TableRef{Name: "r", TextColumn: "name"}),
		Model: eng.Model(),
		Join:  plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: float32(q.spec.Threshold)},
	}
	naive, err := plan.NewNaivePlan(pq)
	if err != nil {
		t.Error(err)
		return
	}
	j, err := (&plan.Optimizer{Params: cost.DefaultParams(), Store: eng.Store()}).Optimize(naive)
	if err != nil {
		t.Error(err)
		return
	}
	ex := &plan.Executor{Options: core.Options{Kernel: vec.DefaultKernel(), Threads: 1}, Store: eng.Store(), BlockRows: block}
	res, err := ex.ExecuteStreaming(context.Background(), j, 0)
	if err != nil {
		t.Error(err)
		return
	}
	ans, err := oracle.Join(memo,
		oracle.Side{Table: pl.Table, Text: "name", Visible: pl.Visible, Preds: q.preds},
		oracle.Side{Table: pr.Table, Text: "name", Visible: pr.Visible}, q.spec)
	if err != nil {
		t.Error(err)
		return
	}
	if err := ans.Check(oracleMatches(res.Matches), 1e-5, 1); err != nil {
		t.Errorf("pinned plan: %v", err)
	}
}

// oracleMatches converts a reply for oracle.Answer.Check, in (Left, Right)
// order: a threshold join the planner swapped is ordered by the swapped
// sides.
func oracleMatches(ms []core.Match) []oracle.Match {
	got := make([]oracle.Match, len(ms))
	for i, m := range ms {
		got[i] = oracle.Match{Left: m.Left, Right: m.Right, Sim: float64(m.Sim)}
	}
	sort.Slice(got, func(a, b int) bool {
		return got[a].Left < got[b].Left || got[a].Left == got[b].Left && got[a].Right < got[b].Right
	})
	return got
}
