package obs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTrace("req-1", "SELECT ...")
	if tr.ID() != "req-1" {
		t.Fatalf("ID = %q, want req-1", tr.ID())
	}
	s := tr.StartSpan("resolve")
	time.Sleep(time.Millisecond)
	s.Attr("tables", 2).End()
	tr.AddSpan("rerank", 5*time.Millisecond, 2*time.Millisecond, map[string]int64{"rows": 10})

	snap := tr.Finish("tensor", errors.New("boom"), &NodeStats{Name: "Scan"})
	if snap.ID != "req-1" || snap.Query != "SELECT ..." {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	if snap.Strategy != "tensor" || snap.Error != "boom" {
		t.Fatalf("snapshot metadata wrong: %+v", snap)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(snap.Spans))
	}
	if snap.Spans[0].Name != "resolve" || snap.Spans[0].Dur <= 0 || snap.Spans[0].Attrs["tables"] != 2 {
		t.Fatalf("resolve span wrong: %+v", snap.Spans[0])
	}
	if snap.Spans[1].Name != "rerank" || snap.Spans[1].Dur != 2*time.Millisecond {
		t.Fatalf("rerank span wrong: %+v", snap.Spans[1])
	}
	if snap.Plan == nil || snap.Plan.Name != "Scan" {
		t.Fatalf("plan missing from snapshot")
	}
	if snap.Elapsed <= 0 {
		t.Fatalf("elapsed not recorded")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace ID should be empty")
	}
	tr.StartSpan("x").Attr("k", 1).End() // must not panic
	tr.AddSpan("y", 0, 0, nil)
	if tr.Finish("", nil, nil) != nil {
		t.Fatal("nil trace Finish should return nil")
	}
}

func TestContextCarriesTraceAndRequestID(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context should carry no trace")
	}
	if RequestIDFrom(ctx) != "" {
		t.Fatal("empty context should carry no request id")
	}
	tr := NewTrace("", "q")
	ctx = NewContext(WithRequestID(ctx, "abc"), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace not round-tripped")
	}
	if RequestIDFrom(ctx) != "abc" {
		t.Fatal("request id not round-tripped")
	}
	if len(tr.ID()) != 16 {
		t.Fatalf("generated id %q should be 16 hex chars", tr.ID())
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("request ids collided: %q", a)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0}, // rounds up to 1µs -> bucket 0
		{time.Microsecond, 0},      // exactly 1µs -> bucket 0
		{time.Microsecond + 1, 1},  // just over 1µs -> bucket 1 (<= 2µs)
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{time.Millisecond, 10},   // 1024µs > 512µs: bucket 10 (<=1024µs)
		{time.Hour, HistBuckets}, // beyond the last finite bound -> +Inf
	}
	for _, c := range cases {
		h.Observe(c.d)
		counts, _ := h.Snapshot()
		if counts[c.want] == 0 {
			t.Fatalf("Observe(%v) did not land in bucket %d: %v", c.d, c.want, counts)
		}
		// Reset by building a fresh histogram each iteration.
		h = Histogram{}
	}

	h = Histogram{}
	h.Observe(3 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	counts, sumNS := h.Snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 2 || h.Count() != 2 {
		t.Fatalf("count = %d/%d, want 2", total, h.Count())
	}
	if sumNS != int64(8*time.Millisecond) {
		t.Fatalf("sum = %d, want %d", sumNS, int64(8*time.Millisecond))
	}
}

func TestHistogramBoundsAscend(t *testing.T) {
	for i := 1; i < HistBuckets; i++ {
		if histBound(i) <= histBound(i-1) {
			t.Fatalf("bounds not ascending at %d", i)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	var v HistogramVec
	v.With("tensor").Observe(time.Millisecond)
	v.With("index").Observe(time.Millisecond)
	v.With("tensor").Observe(time.Millisecond)
	var order []string
	v.Each(func(value string, h *Histogram) {
		order = append(order, fmt.Sprintf("%s=%d", value, h.Count()))
	})
	got := strings.Join(order, ",")
	if got != "index=1,tensor=2" {
		t.Fatalf("Each order/counts = %q, want index=1,tensor=2", got)
	}
}

func TestMetricsWriterRendersValidExposition(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	var v HistogramVec
	v.With("tensor").Observe(time.Millisecond)
	v.With(`we"ird\label` + "\n").Observe(time.Second)

	var b strings.Builder
	mw := NewMetricsWriter(&b)
	mw.Counter("ejoin_queries_total", "Total queries served.", 42)
	mw.Gauge("ejoin_cache_bytes", "Bytes held by the embedding cache.", 1<<20)
	mw.Histogram("ejoin_query_duration_seconds", "Query latency.", &h)
	mw.HistogramVec("ejoin_query_strategy_duration_seconds", "Per-strategy latency.", "strategy", &v)
	if err := mw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, `le="+Inf"`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `strategy="tensor"`) {
		t.Fatalf("missing strategy label:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("self-rendered exposition failed validation: %v\n%s", err, out)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":                    "foo 1\n",
		"duplicate sample":           "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"negative counter":           "# TYPE foo counter\nfoo -1\n",
		"interleaved families":       "# TYPE a counter\n# TYPE b counter\na 1\nb 1\na 2\n",
		"histogram missing +Inf":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram non-cumulative":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram count mismatch":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 5\n",
		"histogram le not ascending": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bad metric name":            "# TYPE 1foo counter\n1foo 1\n",
		"unterminated label":         "# TYPE foo counter\nfoo{a=\"x 1\n",
		"bad escape":                 "# TYPE foo counter\nfoo{a=\"\\x\"} 1\n",
		"bad value":                  "# TYPE foo counter\nfoo pickle\n",
		"bad type":                   "# TYPE foo flavor\nfoo 1\n",
		"duplicate TYPE":             "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"reopened family":            "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# HELP a again\n",
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted malformed input:\n%s", name, in)
		}
	}
}

func TestValidateExpositionAcceptsValid(t *testing.T) {
	in := `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# comment without space-directive
# TYPE h histogram
h_bucket{x="a",le="0.1"} 1
h_bucket{x="a",le="+Inf"} 2
h_sum{x="a"} 0.5
h_count{x="a"} 2
h_bucket{x="b",le="0.1"} 0
h_bucket{x="b",le="+Inf"} 1
h_sum{x="b"} 3.2
h_count{x="b"} 1
`
	if err := ValidateExposition(strings.NewReader(in)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestSlowLogThresholdAndWorst(t *testing.T) {
	l := NewSlowLog(4, 2, 10*time.Millisecond)
	mk := func(id string, d time.Duration) *TraceSnapshot {
		return &TraceSnapshot{ID: id, Elapsed: d}
	}
	l.Record(mk("fast", time.Millisecond)) // below threshold: worst only
	l.Record(mk("slow1", 20*time.Millisecond))
	l.Record(mk("slow2", 30*time.Millisecond))

	d := l.Dump()
	if d.Recorded != 2 || len(d.Recent) != 2 {
		t.Fatalf("ring admission wrong: recorded=%d recent=%d", d.Recorded, len(d.Recent))
	}
	if d.Recent[0].ID != "slow2" || d.Recent[1].ID != "slow1" {
		t.Fatalf("recent not newest-first: %s,%s", d.Recent[0].ID, d.Recent[1].ID)
	}
	if len(d.Worst) != 2 || d.Worst[0].ID != "slow2" || d.Worst[1].ID != "slow1" {
		t.Fatalf("worst wrong: %+v", d.Worst)
	}

	// A later monster query must stay in worst even after the ring rolls.
	l.Record(mk("monster", time.Second))
	for i := 0; i < 10; i++ {
		l.Record(mk(fmt.Sprintf("filler%d", i), 15*time.Millisecond))
	}
	d = l.Dump()
	if len(d.Recent) != 4 {
		t.Fatalf("ring size = %d, want 4", len(d.Recent))
	}
	if d.Recent[0].ID != "filler9" {
		t.Fatalf("newest = %s, want filler9", d.Recent[0].ID)
	}
	if d.Worst[0].ID != "monster" {
		t.Fatalf("worst[0] = %s, want monster", d.Worst[0].ID)
	}
}

func TestSlowLogZeroThresholdKeepsEverything(t *testing.T) {
	l := NewSlowLog(8, 2, 0)
	l.Record(&TraceSnapshot{ID: "a", Elapsed: time.Microsecond})
	entries, worst, recorded := l.Counts()
	if entries != 1 || worst != 1 || recorded != 1 {
		t.Fatalf("counts = %d,%d,%d; want 1,1,1", entries, worst, recorded)
	}
	var nilLog *SlowLog
	nilLog.Record(&TraceSnapshot{}) // must not panic
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, 4, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record(&TraceSnapshot{ID: fmt.Sprintf("%d-%d", g, i), Elapsed: time.Duration(i) * time.Microsecond})
				if i%10 == 0 {
					l.Dump()
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, recorded := l.Counts(); recorded != 800 {
		t.Fatalf("recorded = %d, want 800", recorded)
	}
}

func TestRenderAnalyze(t *testing.T) {
	root := &NodeStats{
		Name: "EJoin(k=2)", EstRows: 300, ObsRows: 42, Elapsed: 1800 * time.Microsecond,
		Detail: "comparisons=22500",
		Children: []*NodeStats{
			{Name: "Embed(a)", EstRows: 150, ObsRows: 150, Elapsed: 3100 * time.Microsecond, Detail: "hits=150 misses=0"},
			{Name: "Scan(b)", EstRows: -1, ObsRows: 151, Elapsed: 12 * time.Microsecond},
		},
	}
	out := RenderAnalyze(root)
	want := "EJoin(k=2)  (est=300 obs=42 time=1.8ms) comparisons=22500\n" +
		"  Embed(a)  (est=150 obs=150 time=3.1ms) hits=150 misses=0\n" +
		"  Scan(b)  (est=? obs=151 time=12µs)\n"
	if out != want {
		t.Fatalf("RenderAnalyze mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
	if RenderAnalyze(nil) != "" {
		t.Fatal("nil tree should render empty")
	}
}

func TestAttrsDetail(t *testing.T) {
	if got := AttrsDetail(map[string]int64{"b": 2, "a": 1}); got != "a=1 b=2" {
		t.Fatalf("AttrsDetail = %q", got)
	}
	if AttrsDetail(nil) != "" {
		t.Fatal("nil attrs should render empty")
	}
}

func TestFloatHistogramRendersValidExposition(t *testing.T) {
	var b strings.Builder
	mw := NewMetricsWriter(&b)
	mw.FloatHistogram("ejoin_feedback_audit_recall", "Audited recall@k.",
		[]float64{0.5, 0.9, 0.99}, []uint64{1, 2, 3, 4}, 7.5)
	if err := mw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	out := b.String()
	for _, frag := range []string{`le="0.5"} 1`, `le="0.9"} 3`, `le="0.99"} 6`, `le="+Inf"} 10`,
		"ejoin_feedback_audit_recall_sum 7.5", "ejoin_feedback_audit_recall_count 10"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in:\n%s", frag, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("float histogram failed validation: %v\n%s", err, out)
	}
}

func TestSlowLogFilter(t *testing.T) {
	mk := func(id, query string, d time.Duration) *TraceSnapshot {
		return &TraceSnapshot{ID: id, Query: query, Elapsed: d}
	}
	d := SlowLogDump{
		Recorded: 3,
		Recent: []*TraceSnapshot{
			mk("a", "SELECT * FROM Catalog JOIN feed", 5*time.Millisecond),
			mk("b", "SELECT * FROM orders JOIN feed", 50*time.Millisecond),
			mk("c", "tune corpus: nprobe 1 -> 2", time.Millisecond),
		},
		Worst: []*TraceSnapshot{
			mk("b", "SELECT * FROM orders JOIN feed", 50*time.Millisecond),
		},
	}

	// Substring match is case-insensitive on the query text.
	f := d.Filter("catalog", 0)
	if len(f.Recent) != 1 || f.Recent[0].ID != "a" || len(f.Worst) != 0 {
		t.Fatalf("substring filter wrong: recent=%+v worst=%+v", f.Recent, f.Worst)
	}
	// Elapsed floor applies to both sections.
	f = d.Filter("", 10*time.Millisecond)
	if len(f.Recent) != 1 || f.Recent[0].ID != "b" || len(f.Worst) != 1 {
		t.Fatalf("min-elapsed filter wrong: recent=%+v worst=%+v", f.Recent, f.Worst)
	}
	// Both together; counters pass through untouched.
	f = d.Filter("orders", 100*time.Millisecond)
	if len(f.Recent) != 0 || len(f.Worst) != 0 || f.Recorded != 3 {
		t.Fatalf("combined filter wrong: %+v", f)
	}
	// The zero filter keeps everything (and the original is not mutated).
	f = d.Filter("", 0)
	if len(f.Recent) != 3 || len(d.Recent) != 3 {
		t.Fatalf("no-op filter changed contents: got %d, original %d", len(f.Recent), len(d.Recent))
	}
}

// TestHistogramVecConcurrentMerge hammers a HistogramVec with new and
// existing keys from many goroutines while readers iterate and render —
// the copy-on-write map swap inside With must hold up under -race.
func TestHistogramVecConcurrentMerge(t *testing.T) {
	var v HistogramVec
	const goroutines, perG, keys = 8, 500, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v.With(fmt.Sprintf("k%d", (g+i)%keys)).Observe(time.Microsecond)
				if i%50 == 0 {
					v.Each(func(string, *Histogram) {})
					var b strings.Builder
					NewMetricsWriter(&b).HistogramVec("x_seconds", "x", "k", &v)
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	v.Each(func(_ string, h *Histogram) { total += h.Count() })
	if total != goroutines*perG {
		t.Fatalf("total observations = %d, want %d", total, goroutines*perG)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var v HistogramVec
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				v.With("s").Observe(time.Microsecond)
				if i%100 == 0 {
					h.Snapshot()
					var b strings.Builder
					NewMetricsWriter(&b).Histogram("x_seconds", "x", &h)
				}
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if v.With("s").Count() != 8000 {
		t.Fatalf("vec count = %d, want 8000", v.With("s").Count())
	}
}
