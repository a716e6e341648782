package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// A workload is one traffic mix against one server configuration. Sizes,
// mixes and server flags are frozen here: changing any of them changes
// what every later PR is measured against, so it is a benchmark change,
// never part of a PR that claims a gain.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json,
	// README and the result envelope carry the same sentence).
	Why string
	// Flags are the extra ejserve flags (beyond -addr and -dim).
	Flags []string
	// Durable boots the server on a fresh -data-dir and adds the
	// SIGKILL/reboot/recovery phase after the timed window.
	Durable bool
	// Shards > 1 runs the in-process replay through a shard.Router.
	Shards int
	// StoreBytes and BlockRows mirror Flags for the in-process replay.
	StoreBytes int64
	BlockRows  int
	// Sizes describes the generated inputs for the result envelope.
	Sizes string
	// gen builds the seeded inputs: tables, warm-up ops, and the timed
	// operation sequence.
	gen func(rng *rand.Rand) *inputs
}

// inputs are everything a run feeds the server, derived from the seed
// alone.
type inputs struct {
	Tables []*table
	// Probe and Build are the probe- and build-side tables of the
	// workload's main join: the traced pass times the leaf kernels on
	// their embedding matrices.
	Probe, Build *table
	// Warm is run once before timing (one pass over every distinct query
	// text, or one table rotation for cold_embed) and charged to setup_s.
	Warm []op
	// Seq yields the timed operations in order.
	Seq sequence
	// Check are the oracle-checked queries run at quiescent points
	// (mixed_mutate: end of run and after recovery).
	Check []op
	// Live is mixed_mutate's model: what each table must hold once every
	// op generated so far has been applied (nil for read-only workloads).
	Live map[string]map[int64]row
}

// sequence is an unbounded, deterministic stream of operations. Next is
// called in order, so a stateful generator (mixed_mutate tracks the live
// keys) sees its own history.
type sequence interface {
	Next() op
}

const embedDim = 100

// schemaSpec is the schema every generated table uses: an integer key,
// the context-rich string the join embeds, and an integer attribute
// uniform in [0,100) for relational predicates.
const schemaSpec = "id:int,name:text,attr:int"

type row struct {
	ID   int64  `json:"id"`
	Name string `json:"name"`
	Attr int64  `json:"attr"`
}

type table struct {
	Name string
	Rows []row
}

func rowsCSV(rows []row) string {
	var b strings.Builder
	b.WriteString("id,name,attr\n")
	for _, r := range rows {
		b.WriteString(strconv.FormatInt(r.ID, 10))
		b.WriteByte(',')
		b.WriteString(r.Name) // generated names are [a-z ]+: no quoting needed
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(r.Attr, 10))
		b.WriteByte('\n')
	}
	return b.String()
}

func (t *table) names() []string {
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Name
	}
	return out
}

type opKind string

const (
	opQuery    opKind = "query"
	opUpsert   opKind = "upsert"
	opDelete   opKind = "delete"
	opSnapshot opKind = "snapshot"
)

// op is one request. The JSON form is what the determinism test compares
// byte for byte.
type op struct {
	Kind  opKind `json:"kind"`
	SQL   string `json:"sql,omitempty"`
	Limit int    `json:"limit,omitempty"`
	// Rows asks the server to materialize joined rows (quiescent checks
	// only; timed queries never set it).
	Rows  bool     `json:"rows,omitempty"`
	Table string   `json:"table,omitempty"`
	Batch []row    `json:"batch,omitempty"`
	Keys  []string `json:"keys,omitempty"`
	// spec is the structured form of SQL, which the oracle evaluates.
	spec *querySpec
}

// querySpec is a query as the oracle sees it; SQL is rendered from it.
type querySpec struct {
	Left, Right string
	// K > 0 is a top-k join; otherwise a threshold join on Thr.
	K int
	// Thr is the similarity threshold (a residual filter when K > 0 and
	// HasThr).
	Thr    float64
	HasThr bool
	// AttrLT > 0 adds WHERE left.attr < AttrLT.
	AttrLT int64
}

// ---- text generation -------------------------------------------------
//
// The benchmark generates its own inputs instead of using
// internal/workload: a later change to that package must not change what
// the benchmark feeds the server.

var syllables = strings.Fields(`ba be bi bo bu da de di do du fa fe fi fo ga ge gi go ka ke ki ko ku
la le li lo lu ma me mi mo mu na ne ni no nu pa pe pi po ra re ri ro ru sa se si so su ta te ti to tu
va ve vi vo za ze zi zo`)

// newVocab returns n distinct pseudo-words of three or four syllables.
// Words are long enough that the hash embedder's 3..5-gram features make
// a one-letter variant land near its base and unrelated words land far.
func newVocab(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var b strings.Builder
		for k := 3 + rng.Intn(2); k > 0; k-- {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		if w := b.String(); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// phrases returns n distinct two-word phrases over vocab.
func phrases(rng *rand.Rand, vocab []string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		p := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// variant derives a dirty copy of a phrase: unchanged, pluralized, one
// typo, or one extra word — the paper's "misspellings, plural forms"
// feed. The similarity to the base spreads from ~0.6 to 1.0, so the
// thresholds the workloads use (0.80, 0.85) cut through it.
func variant(rng *rand.Rand, vocab []string, phrase string) string {
	words := strings.Fields(phrase)
	w := rng.Intn(len(words))
	switch rng.Intn(4) {
	case 0:
		return phrase
	case 1:
		words[w] += "s"
	case 2:
		b := []byte(words[w])
		pos := 1 + rng.Intn(len(b)-2)
		b[pos] = 'a' + (b[pos]-'a'+1+byte(rng.Intn(24)))%26
		words[w] = string(b)
	default:
		words = append(words, vocab[rng.Intn(len(vocab))])
	}
	return strings.Join(words, " ")
}

// variantTable draws n rows, each a variant of a random base phrase.
func variantTable(rng *rand.Rand, name string, n int, vocab, bases []string) *table {
	t := &table{Name: name, Rows: make([]row, n)}
	for i := range t.Rows {
		t.Rows[i] = row{ID: int64(i), Name: variant(rng, vocab, bases[rng.Intn(len(bases))]), Attr: int64(rng.Intn(100))}
	}
	return t
}

// cycle repeats a fixed list of ops forever.
type cycle struct {
	ops []op
	i   int
}

func (c *cycle) Next() op {
	o := c.ops[c.i%len(c.ops)]
	c.i++
	return o
}

// simOp is a threshold join; thr is the literal as it appears in the text.
func simOp(l, r, thr string) op {
	t, err := strconv.ParseFloat(thr, 64)
	if err != nil {
		panic("benchmark: bad threshold literal " + thr) // generator bug
	}
	return op{
		Kind: opQuery,
		SQL:  fmt.Sprintf("SELECT * FROM %s JOIN %s ON SIM(%s.name, %s.name) >= %s", l, r, l, r, thr),
		spec: &querySpec{Left: l, Right: r, Thr: t, HasThr: true},
	}
}

func topkOp(l, r string, k int) op {
	return op{
		Kind: opQuery,
		SQL:  fmt.Sprintf("SELECT * FROM %s JOIN %s ON TOPK(%s.name, %s.name, %d)", l, r, l, r, k),
		spec: &querySpec{Left: l, Right: r, K: k},
	}
}

// residual adds a range condition over a top-k join.
func (o op) residual(thr float64) op {
	spec := *o.spec
	spec.Thr, spec.HasThr = thr, true
	o.spec = &spec
	o.SQL += " >= " + strconv.FormatFloat(thr, 'g', -1, 64)
	return o
}

// where adds the relational predicate left.attr < n (attr is uniform in
// [0,100), so n is the selectivity in percent).
func (o op) where(n int64) op {
	spec := *o.spec
	spec.AttrLT = n
	o.spec = &spec
	o.SQL += fmt.Sprintf(" WHERE %s.attr < %d", spec.Left, n)
	return o
}

func (o op) limit(n int) op { o.Limit = n; return o }

func (o op) withRows() op { o.Rows = true; return o }

// ---- the five workloads ------------------------------------------------

func genScan(rng *rand.Rand) *inputs {
	const n = 1024
	vocab := newVocab(rng, 400)
	bases := phrases(rng, vocab, n)
	l := variantTable(rng, "l", n, vocab, bases)
	r := variantTable(rng, "r", n, vocab, bases)
	ops := []op{
		simOp("l", "r", "0.80"),
		simOp("l", "r", "0.85"),
		topkOp("l", "r", 3),
		simOp("l", "r", "0.80").where(30),
	}
	return &inputs{Tables: []*table{l, r}, Probe: l, Build: r, Warm: ops, Seq: &cycle{ops: ops}}
}

// pointSeq is point_limit's mix: 15 of every 16 requests cycle through 16
// cached texts; the 16th carries a threshold literal no earlier request
// used, so the plan cache misses and sqlish.Prepare runs.
type pointSeq struct {
	cached []op
	i      int
}

func (p *pointSeq) Next() op {
	i := p.i
	p.i++
	if i%16 == 15 {
		// 0.70 + i*1e-7 stays below 0.78 for every i a run can reach and
		// is distinct per i at seven decimals.
		return simOp("p", "b", fmt.Sprintf("%.7f", 0.70+float64(i)*1e-7)).limit(10)
	}
	return p.cached[(i-i/16)%len(p.cached)]
}

func genPoint(rng *rand.Rand) *inputs {
	vocab := newVocab(rng, 400)
	bases := phrases(rng, vocab, 128)
	p := variantTable(rng, "p", 4096, vocab, bases[:64])
	b := variantTable(rng, "b", 32, vocab, bases[:32])
	s1 := variantTable(rng, "s1", 64, vocab, bases[64:])
	s2 := variantTable(rng, "s2", 64, vocab, bases[64:])
	var cached []op
	for i := 0; i < 12; i++ {
		cached = append(cached, simOp("p", "b", fmt.Sprintf("0.%d", 60+2*i)).limit(10))
	}
	cached = append(cached,
		topkOp("s1", "s2", 1),
		topkOp("s2", "s1", 1),
		topkOp("s1", "s2", 1).residual(0.5),
		topkOp("s2", "s1", 1).residual(0.5),
	)
	// Interleave so the TOPK texts are spread through the cycle, not
	// bunched at its end.
	mixed := make([]op, 0, len(cached))
	for i := 0; i < 4; i++ {
		mixed = append(mixed, cached[3*i], cached[3*i+1], cached[3*i+2], cached[12+i])
	}
	return &inputs{Tables: []*table{p, b, s1, s2}, Probe: p, Build: b, Warm: mixed, Seq: &pointSeq{cached: mixed}}
}

func genCold(rng *rand.Rand) *inputs {
	const tables, n = 16, 512
	vocab := newVocab(rng, 600)
	// Every probe string is distinct across all sixteen tables, so a table
	// that comes round again finds none of its strings resident.
	seen := make(map[string]bool, tables*n)
	in := &inputs{}
	var ops []op
	var buildRows []row
	for t := 0; t < tables; t++ {
		name := fmt.Sprintf("c%d", t)
		tb := &table{Name: name, Rows: make([]row, 0, n)}
		for len(tb.Rows) < n {
			s := vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
			if seen[s] {
				continue
			}
			seen[s] = true
			tb.Rows = append(tb.Rows, row{ID: int64(len(tb.Rows)), Name: s, Attr: int64(rng.Intn(100))})
		}
		in.Tables = append(in.Tables, tb)
		// Four build rows per probe table are variants of its strings,
		// so every query has a handful of true matches to verify.
		for k := 0; k < 4; k++ {
			base := tb.Rows[rng.Intn(n)].Name
			buildRows = append(buildRows, row{ID: int64(len(buildRows)), Name: variant(rng, vocab, base), Attr: int64(rng.Intn(100))})
		}
		ops = append(ops, simOp(name, "cb", "0.80"))
	}
	in.Probe, in.Build = in.Tables[0], &table{Name: "cb", Rows: buildRows}
	in.Tables = append(in.Tables, in.Build)
	in.Warm = ops
	in.Seq = &cycle{ops: ops}
	return in
}

// Mutation hazards: two mutations commute only when they touch disjoint
// keys. The generator keeps every key a mutation touches out of the next
// mutateWindow-1 positions, and the load driver never lets two ops more
// than mutateWindow positions apart run concurrently, so the final state
// is the sequential one whatever the interleaving.
const mutateWindow = 8

// mutateSeq is mixed_mutate's stateful generator. Per 100 positions: one
// snapshot, 30 upserts of 16 rows (8 new keys, 8 overwrites), 10 deletes
// of 24 keys, 59 queries — 240 keys in, 240 keys out, so the live row
// count is stationary.
type mutateSeq struct {
	rng     *rand.Rand
	vocab   []string
	bases   []string
	queries []op
	i       int
	nextID  int64
	// upserts and deletes count the mutations generated so far.
	upserts, deletes int
	// live is the model: what each table must hold once every generated
	// op has been applied. The oracle checks the server against it.
	live map[string]map[int64]row
	// recent[k] are the keys touched by the mutation at position i-1-k.
	recent [mutateWindow - 1]map[string]bool
}

func (m *mutateSeq) Next() op {
	i := m.i
	m.i++
	var o op
	switch {
	case i%100 == 0:
		o = op{Kind: opSnapshot}
	case i%10 == 1 || i%10 == 4 || i%10 == 7:
		o = m.upsert()
	case i%10 == 5:
		o = m.delete()
	default:
		o = m.queries[m.rng.Intn(len(m.queries))]
	}
	touched := make(map[string]bool)
	for _, r := range o.Batch {
		touched[o.Table+"/"+strconv.FormatInt(r.ID, 10)] = true
	}
	for _, k := range o.Keys {
		touched[o.Table+"/"+k] = true
	}
	copy(m.recent[1:], m.recent[:len(m.recent)-1])
	m.recent[0] = touched
	return o
}

// pickTable alternates the two tables per mutation kind, so each gets
// exactly half the upserts and half the deletes and neither drifts.
func (m *mutateSeq) pickTable(n *int) string {
	*n++
	return [2]string{"ml", "mr"}[*n%2]
}

// freeKeys returns n live keys of table that no mutation in the hazard
// window touched, in a seeded order.
func (m *mutateSeq) freeKeys(table string, n int) []int64 {
	ids := make([]int64, 0, len(m.live[table]))
	for id := range m.live[table] {
		k := table + "/" + strconv.FormatInt(id, 10)
		busy := false
		for _, rec := range m.recent {
			if rec[k] {
				busy = true
				break
			}
		}
		if !busy {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] }) // map order is random
	m.rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	if n > len(ids) {
		n = len(ids)
	}
	return ids[:n]
}

func (m *mutateSeq) newRow(id int64) row {
	return row{ID: id, Name: variant(m.rng, m.vocab, m.bases[m.rng.Intn(len(m.bases))]), Attr: int64(m.rng.Intn(100))}
}

func (m *mutateSeq) upsert() op {
	t := m.pickTable(&m.upserts)
	o := op{Kind: opUpsert, Table: t}
	for _, id := range m.freeKeys(t, 8) {
		o.Batch = append(o.Batch, m.newRow(id))
	}
	for k := 0; k < 8; k++ {
		o.Batch = append(o.Batch, m.newRow(m.nextID))
		m.nextID++
	}
	for _, r := range o.Batch {
		m.live[t][r.ID] = r
	}
	return o
}

func (m *mutateSeq) delete() op {
	t := m.pickTable(&m.deletes)
	o := op{Kind: opDelete, Table: t}
	for _, id := range m.freeKeys(t, 24) {
		o.Keys = append(o.Keys, strconv.FormatInt(id, 10))
		delete(m.live[t], id)
	}
	return o
}

func genMutate(rng *rand.Rand) *inputs {
	const n = 512
	vocab := newVocab(rng, 400)
	bases := phrases(rng, vocab, n)
	ml := variantTable(rng, "ml", n, vocab, bases)
	mr := variantTable(rng, "mr", n, vocab, bases)
	queries := []op{
		simOp("ml", "mr", "0.80"),
		simOp("ml", "mr", "0.85"),
		topkOp("ml", "mr", 3),
		simOp("ml", "mr", "0.80").where(30),
	}
	seq := &mutateSeq{rng: rng, vocab: vocab, bases: bases, queries: queries, nextID: n,
		live: map[string]map[int64]row{"ml": {}, "mr": {}}}
	for _, t := range []*table{ml, mr} {
		for _, r := range t.Rows {
			seq.live[t.Name][r.ID] = r
		}
	}
	// TOPK 1 in both directions returns every live row of each table once
	// (with its columns), which is how "every acknowledged write is
	// visible" is checked; the threshold join is the final-state oracle.
	check := []op{
		topkOp("ml", "mr", 1).withRows(),
		topkOp("mr", "ml", 1).withRows(),
		simOp("ml", "mr", "0.80").withRows(),
	}
	return &inputs{Tables: []*table{ml, mr}, Probe: ml, Build: mr, Warm: queries, Seq: seq, Check: check, Live: seq.live}
}

var workloads = []workload{
	{
		Name:  "scan_warm",
		Why:   "the paper's core case: 1024x1024 threshold/top-k joins, working set resident in the embedding store, so vec/mat/core/exec kernels do the work",
		Sizes: "l=1024 r=1024 rows, dim 100, 4 query texts cycled",
		gen:   genScan,
	},
	{
		Name:      "point_limit",
		Why:       "per-query overhead: 4096x32 LIMIT 10 and 64x64 TOPK 1 joins of ~0.3 ms, 1 in 16 a plan-cache miss, so http/service/sqlish/plan/obs do the work",
		Flags:     []string{"-exec-block-rows", "256"},
		BlockRows: 256,
		Sizes:     "p=4096 b=32 s1=64 s2=64 rows, dim 100, 16 cached texts + 1/16 fresh literal, limit 10",
		gen:       genPoint,
	},
	{
		Name:       "cold_embed",
		Why:        "working set larger than the embedding store: 16x512 distinct strings round-robin through a 2 MiB store, so model/embstore miss+evict do the work",
		Flags:      []string{"-store-bytes", "2097152"},
		StoreBytes: 2 << 20,
		Sizes:      "c0..c15=512 distinct rows each (8192 strings, ~3.8 MB of entries), cb=64 rows, dim 100, store 2 MiB",
		gen:        genCold,
	},
	{
		Name:    "mixed_mutate",
		Why:     "writes beside reads on a durable server: 59% queries, 30% upserts, 10% deletes, 1% snapshots on 512x512 tables, then SIGKILL and recovery",
		Durable: true,
		Sizes:   "ml=512 mr=512 live rows (stationary), dim 100, upsert 16 rows, delete 24 keys, snapshot every 100th op",
		gen:     genMutate,
	},
	{
		Name:   "scan_sharded",
		Why:    "scan_warm's exact sequence through -shards 2 -partitioner hash: same kernels plus fan-out and k-way merge, so router cost shows only here",
		Flags:  []string{"-shards", "2", "-partitioner", "hash"},
		Shards: 2,
		Sizes:  "as scan_warm, 2 hash shards",
		gen:    genScan,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// generate builds a workload's inputs from the seed alone.
func (w *workload) generate(seed int64) *inputs {
	return w.gen(rand.New(rand.NewSource(seed)))
}
