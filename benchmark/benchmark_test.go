package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Fast tests only: nothing here spawns a server.

func opsJSON(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	in := w.generate(seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, tb := range in.Tables {
		if err := enc.Encode(tb); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := enc.Encode(in.Seq.Next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := opsJSON(t, w, 7, 400), opsJSON(t, w, 7, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different input streams", w.Name)
		}
		if c := opsJSON(t, w, 8, 400); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same input stream", w.Name)
		}
	}
}

func TestShardedReplaysScanWarm(t *testing.T) {
	a := opsJSON(t, findWorkload("scan_warm"), 3, 50)
	b := opsJSON(t, findWorkload("scan_sharded"), 3, 50)
	if !bytes.Equal(a, b) {
		t.Error("scan_sharded must send scan_warm's exact sequence")
	}
}

func touchedKeys(o op) map[string]bool {
	keys := make(map[string]bool)
	for _, r := range o.Batch {
		keys[o.Table+"/"+strconv.FormatInt(r.ID, 10)] = true
	}
	for _, k := range o.Keys {
		keys[o.Table+"/"+k] = true
	}
	return keys
}

func TestNearbyMutationsAreKeyDisjoint(t *testing.T) {
	in := findWorkload("mixed_mutate").generate(11)
	const n = 3000
	ops := make([]op, n)
	for i := range ops {
		ops[i] = in.Seq.Next()
	}
	for i := range ops {
		ki := touchedKeys(ops[i])
		for j := i + 1; j < i+mutateWindow && j < n; j++ {
			for k := range touchedKeys(ops[j]) {
				if ki[k] {
					t.Fatalf("ops %d and %d (%d apart) both touch key %s", i, j, j-i, k)
				}
			}
		}
	}
}

func TestMutateMixIsStationary(t *testing.T) {
	in := findWorkload("mixed_mutate").generate(5)
	seq := in.Seq.(*mutateSeq)
	counts := make(map[opKind]int)
	for i := 0; i < 2000; i++ {
		o := seq.Next()
		counts[o.Kind]++
		switch o.Kind {
		case opUpsert:
			if len(o.Batch) != 16 {
				t.Fatalf("op %d: upsert of %d rows, want 16", i, len(o.Batch))
			}
		case opDelete:
			if len(o.Keys) != 24 {
				t.Fatalf("op %d: delete of %d keys, want 24", i, len(o.Keys))
			}
		}
	}
	want := map[opKind]int{opSnapshot: 20, opUpsert: 600, opDelete: 200, opQuery: 1180}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s: %d ops in 2000, want %d", k, counts[k], n)
		}
	}
	for name, live := range seq.live {
		// Per 200 ops each table takes 30 upserts (+240 keys) and 10
		// deletes (-240 keys), so 2000 ops leave it where it started.
		if n := len(live); n != 512 {
			t.Errorf("table %s drifted to %d live rows", name, n)
		}
	}
}

func TestPointLimitMix(t *testing.T) {
	in := findWorkload("point_limit").generate(2)
	seen := make(map[string]int)
	for i := 0; i < 1600; i++ {
		seen[in.Seq.Next().SQL]++
	}
	fresh, cached := 0, 0
	for _, n := range seen {
		if n == 1 {
			fresh++
		} else {
			cached++
		}
	}
	if fresh != 100 || cached != 16 {
		t.Errorf("1600 ops: %d one-off texts and %d repeated texts, want 100 and 16", fresh, cached)
	}
}

func TestDispatcherBoundsSkew(t *testing.T) {
	d := newDispatcher(&cycle{ops: []op{{Kind: opQuery}}}, 2, time.Now().Add(time.Minute))
	first, _, _ := d.pull(0) // worker 0 holds op 0 and never finishes
	got := make(chan int, 2*mutateWindow)
	go func() {
		for {
			i, _, ok := d.pull(1)
			if !ok {
				close(got)
				return
			}
			got <- i
		}
	}()
	last := first
	timeout := time.After(200 * time.Millisecond)
loop:
	for {
		select {
		case i := <-got:
			last = i
		case <-timeout:
			break loop
		}
	}
	if last-first != mutateWindow-1 {
		t.Errorf("worker 1 reached op %d while op %d was in flight; want it held at %d", last, first, first+mutateWindow-1)
	}
	d.mu.Lock()
	d.deadline = time.Now()
	d.mu.Unlock()
	d.finish(0) // releases worker 1, which then sees the deadline
	for range got {
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1.0 / 1000, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%.3f of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0.5},      // p90 of 19 leaves 1 beyond
		{100, 0.90},    // p90 leaves 10; p95 leaves 5
		{199, 0.90},    // p95 leaves 9
		{200, 0.95},    // p95 leaves 10
		{800, 0.95},    // p99 leaves 8 — the issue's reason for gating p95
		{1000, 0.99},   // p99 leaves 10
		{10000, 0.999}, // p99.9 leaves 10
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
}

func TestJudgeVerdictTable(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"latency up 20%", lower, tight(100), tight(120), worse},
		{"latency up 5%: inside the bound", lower, tight(100), tight(105), same},
		{"latency down 20%", lower, tight(100), tight(80), better},
		{"latency down 1%: inside the spread", lower, tight(100), tight(99), same},
		{"throughput down 20%", higher, tight(100), tight(80), worse},
		{"throughput up 20%", higher, tight(100), tight(120), better},
		{"spread wider than the bound", lower, wide(100), tight(130), unresolved},
		{"single runs compare on the bound alone", lower, []float64{100}, []float64{111}, worse},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	env := func(p50 float64) *envelope {
		return &envelope{Workloads: []workloadResult{{Name: "scan_warm", Metrics: []metricRow{
			{Metric: "query_p50_ms", Kind: "end_to_end", Value: p50, Values: []float64{p50}},
			{Metric: "core.nlj_ns_pair", Kind: "per_layer", Value: p50, Values: []float64{p50}},
		}}}}
	}
	var out bytes.Buffer
	if code := compareEnvelopes(&out, env(100), env(103)); code != 0 {
		t.Errorf("3%% slower: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareEnvelopes(&out, env(100), env(150)); code != 1 {
		t.Errorf("50%% slower: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse verdict printed:\n%s", out.String())
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "leaf", Start: 15, End: 20},
	}
	want := []time.Duration{100 - (30 + 20 + 10), 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if by := selfByName(spans); by["root"] != 40 || by["leaf"] != 5 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	r.nextRequest()
	a := r.begin("outer")
	b := r.begin("inner")
	r.end(b)
	r.end(a)
	c := r.begin("next")
	r.end(c)
	if r.spans[b].Parent != a || r.spans[a].Parent != -1 || r.spans[c].Parent != -1 {
		t.Errorf("parents: %+v", r.spans)
	}
	if r.spans[b].Request != 1 {
		t.Errorf("request id = %d, want 1", r.spans[b].Request)
	}
	var off *recorder // the spans-off replay
	off.end(off.begin("ignored"))
	off.nextRequest()
}

func TestOracleThresholdAndLimit(t *testing.T) {
	left := []row{{ID: 0}, {ID: 1}}
	right := []row{{ID: 0}, {ID: 1}}
	sims := []float64{0.9, 0.5, 0.8 + simEps/2, 0.95} // (0,0) (0,1) (1,0) (1,1)
	spec := &querySpec{Thr: 0.8, HasThr: true}
	full := []pair{{0, 0, 0.9}, {1, 0, 0.8}, {1, 1, 0.95}}
	if err := checkThreshold(spec, 0, sims, left, right, full); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	// The pair within simEps of the threshold may be absent.
	if err := checkThreshold(spec, 0, sims, left, right, []pair{{0, 0, 0.9}, {1, 1, 0.95}}); err != nil {
		t.Errorf("borderline pair must be optional: %v", err)
	}
	if err := checkThreshold(spec, 0, sims, left, right, []pair{{0, 0, 0.9}}); err == nil {
		t.Error("missing match (1,1) accepted")
	}
	if err := checkThreshold(spec, 0, sims, left, right, append([]pair{{0, 1, 0.5}}, full...)); err == nil {
		t.Error("spurious match (0,1) accepted")
	}
	if err := checkThreshold(spec, 0, sims, left, right, []pair{{0, 0, 0.7}, {1, 0, 0.8}, {1, 1, 0.95}}); err == nil {
		t.Error("wrong similarity accepted")
	}
	// LIMIT 1 owes only the first match in (left, right) order.
	if err := checkThreshold(spec, 1, sims, left, right, []pair{{0, 0, 0.9}}); err != nil {
		t.Errorf("limit 1 answer rejected: %v", err)
	}
	if err := checkThreshold(spec, 1, sims, left, right, []pair{{1, 1, 0.95}}); err == nil {
		t.Error("limit 1 answer that skips (0,0) accepted")
	}
}

func TestOracleTopK(t *testing.T) {
	left := []row{{ID: 0}}
	right := []row{{ID: 0}, {ID: 1}, {ID: 2}}
	sims := []float64{0.9, 0.5, 0.7}
	spec := &querySpec{K: 2}
	if err := checkTopK(spec, sims, left, right, []pair{{0, 0, 0.9}, {0, 2, 0.7}}); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	if err := checkTopK(spec, sims, left, right, []pair{{0, 0, 0.9}, {0, 1, 0.5}}); err == nil {
		t.Error("third-best returned in place of second-best")
	}
	if err := checkTopK(spec, sims, left, right, []pair{{0, 0, 0.9}}); err == nil {
		t.Error("one match for k=2 accepted")
	}
	residual := &querySpec{K: 2, Thr: 0.8, HasThr: true}
	if err := checkTopK(residual, sims, left, right, []pair{{0, 0, 0.9}}); err != nil {
		t.Errorf("residual threshold drops the second-best: %v", err)
	}
}

func TestCheckVisible(t *testing.T) {
	live := map[int64]row{1: {ID: 1, Name: "a", Attr: 3}, 2: {ID: 2, Name: "b", Attr: 4}}
	body := func(rows string) []byte { return []byte(`{"rows":[` + rows + `]}`) }
	both := `{"l_id":1,"l_name":"a","l_attr":3},{"l_id":2,"l_name":"b","l_attr":4}`
	if err := checkVisible(body(both), live); err != nil {
		t.Errorf("complete listing rejected: %v", err)
	}
	if err := checkVisible(body(`{"l_id":1,"l_name":"a","l_attr":3}`), live); err == nil {
		t.Error("lost write (row 2) accepted")
	}
	if err := checkVisible(body(both+`,{"l_id":9,"l_name":"z","l_attr":0}`), live); err == nil {
		t.Error("deleted row still visible accepted")
	}
	if err := checkVisible(body(`{"l_id":1,"l_name":"stale","l_attr":3},{"l_id":2,"l_name":"b","l_attr":4}`), live); err == nil {
		t.Error("stale column value accepted")
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the Go
// metric tables equal: a metric renamed on one side only would silently
// vanish from the driver's view.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q vs %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || math.Abs(m.Bound-d.Bound) > 1e-12 {
			t.Errorf("end_to_end[%d]: %+v vs %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d]: %+v vs %+v", i, m, d)
		}
	}
}
