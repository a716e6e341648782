package embstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ejoin/internal/model"
	"ejoin/internal/vec"
)

func testModel(t *testing.T, dim int) model.Model {
	t.Helper()
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func words(r *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("word-%d", r.Intn(n))
	}
	return out
}

// normalized is the reference embedding: exactly what the store must hand
// back for input under m.
func normalized(t *testing.T, m model.Model, input string) []float32 {
	t.Helper()
	raw, err := m.Embed(input)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(raw))
	vec.NormalizeInto(out, raw)
	return out
}

func vecsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGetHitMissStats(t *testing.T) {
	m := model.NewCountingModel(testModel(t, 32))
	s := New(Config{})
	ctx := context.Background()

	v1, err := s.Get(ctx, m, "barbecue")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Get(ctx, m, "barbecue")
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(v1, v2) {
		t.Error("hit returned different vector than miss")
	}
	if !vecsEqual(v1, normalized(t, m.Inner, "barbecue")) {
		t.Error("cached vector differs from direct embedding")
	}
	// Caller owns the returned slice: mutating it must not poison the cache.
	v1[0] = 42
	v3, _ := s.Get(ctx, m, "barbecue")
	if v3[0] == 42 {
		t.Error("cache entry aliases caller slice")
	}
	if calls := m.Calls(); calls != 1 {
		t.Errorf("model calls = %d, want 1", calls)
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.ModelCalls != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes = %d", st.Bytes)
	}
}

func TestFingerprintSeparatesModels(t *testing.T) {
	a := testModel(t, 16)
	b, err := model.NewRandomEmbedder(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ctx := context.Background()
	va, _ := s.Get(ctx, a, "token")
	vb, _ := s.Get(ctx, b, "token")
	if vecsEqual(va, vb) {
		t.Error("different models collided in the cache")
	}
	if s.Stats().Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Stats().Entries)
	}
}

// blockingModel parks every Embed on a gate so tests control when the
// single in-flight call completes.
type blockingModel struct {
	inner   model.Model
	gate    chan struct{}
	started atomic.Int64
	calls   atomic.Int64
}

func (b *blockingModel) Embed(input string) ([]float32, error) {
	b.started.Add(1)
	<-b.gate
	b.calls.Add(1)
	return b.inner.Embed(input)
}
func (b *blockingModel) Dim() int     { return b.inner.Dim() }
func (b *blockingModel) Name() string { return b.inner.Name() + "+blocking" }

func TestSingleFlightDedup(t *testing.T) {
	bm := &blockingModel{inner: testModel(t, 24), gate: make(chan struct{})}
	s := New(Config{})
	ctx := context.Background()
	const callers = 16

	var wg sync.WaitGroup
	results := make([][]float32, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Get(ctx, bm, "hot-key")
		}(i)
	}
	// Wait until the owning caller is inside the model, then release.
	for bm.started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(bm.gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !vecsEqual(results[i], results[0]) {
			t.Fatalf("caller %d got a different vector", i)
		}
	}
	if calls := bm.calls.Load(); calls != 1 {
		t.Errorf("model calls = %d, want 1 (single flight)", calls)
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Merged != callers-1 {
		t.Errorf("hits+merged = %d, want %d", st.Hits+st.Merged, callers-1)
	}
}

func TestEmbedAllDedupAndWarmRun(t *testing.T) {
	m := model.NewCountingModel(testModel(t, 32))
	s := New(Config{})
	ctx := context.Background()

	inputs := []string{"a", "b", "a", "c", "b", "a"}
	out, bs, err := s.EmbedAll(ctx, m, inputs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Calls() != 3 {
		t.Errorf("cold model calls = %d, want 3 distinct", m.Calls())
	}
	if bs.Misses != 3 || bs.Merged != 3 || bs.Hits != 0 || bs.ModelCalls != 3 {
		t.Errorf("cold batch stats = %+v", bs)
	}
	for i, in := range inputs {
		if !vecsEqual(out.Row(i), normalized(t, m.Inner, in)) {
			t.Errorf("row %d (%q) differs from direct embedding", i, in)
		}
	}

	// Warm: zero model calls, identical rows.
	m.Reset()
	out2, bs2, err := s.EmbedAll(ctx, m, inputs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Calls() != 0 {
		t.Errorf("warm model calls = %d, want 0", m.Calls())
	}
	if bs2.Hits != int64(len(inputs)) || bs2.Misses != 0 || bs2.ModelCalls != 0 {
		t.Errorf("warm batch stats = %+v", bs2)
	}
	for i := range inputs {
		if !vecsEqual(out.Row(i), out2.Row(i)) {
			t.Errorf("warm row %d differs from cold row", i)
		}
	}
}

func TestEmbedAllErrorPropagates(t *testing.T) {
	boom := errors.New("down")
	bad := &model.FailingModel{
		Inner: testModel(t, 16),
		Match: func(s string) bool { return s == "poison" },
		Err:   boom,
	}
	s := New(Config{})
	ctx := context.Background()
	if _, _, err := s.EmbedAll(ctx, bad, []string{"a", "poison", "b"}, BatchOptions{}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	// The failure must not leave stuck flights: the same keys resolve after
	// the model recovers.
	if _, _, err := s.EmbedAll(ctx, bad, []string{"a", "b"}, BatchOptions{}); err != nil {
		t.Errorf("post-failure embed: %v", err)
	}
	if _, err := s.Get(ctx, bad.Inner, "poison"); err != nil {
		t.Errorf("post-failure get via healthy model: %v", err)
	}
}

func TestGetErrorNotCached(t *testing.T) {
	inner := testModel(t, 16)
	var fail atomic.Bool
	fail.Store(true)
	bad := &model.FailingModel{
		Inner: inner,
		Match: func(s string) bool { return fail.Load() },
		Err:   errors.New("transient"),
	}
	s := New(Config{})
	ctx := context.Background()
	if _, err := s.Get(ctx, bad, "x"); err == nil {
		t.Fatal("expected error")
	}
	fail.Store(false)
	if _, err := s.Get(ctx, bad, "x"); err != nil {
		t.Errorf("error was cached: %v", err)
	}
}

// TestEvictionBound is the bounded-memory property test: however many
// distinct keys flow through, resident bytes never exceed the budget and
// every vector handed out is still correct.
func TestEvictionBound(t *testing.T) {
	m := testModel(t, 64)
	const budget = 64 << 10
	s := New(Config{Shards: 4, MaxBytes: budget})
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))

	for round := 0; round < 40; round++ {
		batch := make([]string, 50)
		for i := range batch {
			batch[i] = fmt.Sprintf("key-%d", r.Intn(5000))
		}
		out, _, err := s.EmbedAll(ctx, m, batch, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !vecsEqual(out.Row(0), normalized(t, m, batch[0])) {
			t.Fatalf("round %d: wrong vector under eviction pressure", round)
		}
		if st := s.Stats(); st.Bytes > budget {
			t.Fatalf("round %d: resident %d bytes exceeds budget %d", round, st.Bytes, budget)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions under a tight budget")
	}
	if st.Entries == 0 {
		t.Error("store emptied itself")
	}
}

// TestParallelMixedWorkload hammers the store from many goroutines with
// overlapping Get and EmbedAll traffic over a small vocabulary, under a
// byte budget so hits, misses, merges, and evictions all interleave.
// Run with -race; every result is checked against the direct embedding.
func TestParallelMixedWorkload(t *testing.T) {
	m := testModel(t, 48)
	s := New(Config{Shards: 8, MaxBytes: 128 << 10, ChunkSize: 8, Threads: 4})
	ctx := context.Background()

	// Reference embeddings computed sequentially up front.
	vocab := make([]string, 200)
	want := make(map[string][]float32, len(vocab))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tuple-%d", i)
		want[vocab[i]] = normalized(t, m, vocab[i])
	}

	const workers = 12
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 30; iter++ {
				if r.Intn(2) == 0 {
					in := vocab[r.Intn(len(vocab))]
					got, err := s.Get(ctx, m, in)
					if err != nil {
						errCh <- err
						return
					}
					if !vecsEqual(got, want[in]) {
						errCh <- fmt.Errorf("worker %d: wrong vector for %q", w, in)
						return
					}
				} else {
					batch := make([]string, 1+r.Intn(40))
					for i := range batch {
						batch[i] = vocab[r.Intn(len(vocab))]
					}
					out, _, err := s.EmbedAll(ctx, m, batch, BatchOptions{})
					if err != nil {
						errCh <- err
						return
					}
					for i, in := range batch {
						if !vecsEqual(out.Row(i), want[in]) {
							errCh <- fmt.Errorf("worker %d: wrong batch row for %q", w, in)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("workload did not mix hits and misses: %+v", st)
	}
	if st.Bytes > 128<<10 {
		t.Errorf("budget exceeded: %d", st.Bytes)
	}
}

func TestEmbedBatchMatchesSequential(t *testing.T) {
	m := testModel(t, 40)
	ctx := context.Background()
	inputs := words(rand.New(rand.NewSource(5)), 150)

	want := make([][]float32, len(inputs))
	for i, in := range inputs {
		want[i] = normalized(t, m, in)
	}
	for _, threads := range []int{0, 1, 3, 64} {
		out, err := EmbedBatch(ctx, m, inputs, BatchOptions{Threads: threads, ChunkSize: 7})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		for i := range inputs {
			if !vecsEqual(out.Row(i), want[i]) {
				t.Fatalf("threads=%d: row %d differs", threads, i)
			}
		}
	}
}

func TestEmbedBatchCancellation(t *testing.T) {
	m := testModel(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EmbedBatch(ctx, m, []string{"a", "b", "c"}, BatchOptions{Threads: 2}); err == nil {
		t.Error("expected cancellation error")
	}
	out, err := EmbedBatch(context.Background(), m, nil, BatchOptions{})
	if err != nil || out.Rows() != 0 {
		t.Errorf("empty batch: %v %v", out, err)
	}
}

func TestResetAndLen(t *testing.T) {
	m := testModel(t, 16)
	s := New(Config{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := s.Get(ctx, m, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Errorf("len = %d", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("len after reset = %d", s.Len())
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Bytes != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestContainsDoesNotPromoteOrCount(t *testing.T) {
	m := testModel(t, 16)
	s := New(Config{})
	ctx := context.Background()
	if s.Contains(m, "x") {
		t.Error("empty store claims containment")
	}
	if _, err := s.Get(ctx, m, "x"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if !s.Contains(m, "x") {
		t.Error("store lost entry")
	}
	after := s.Stats()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Error("Contains mutated statistics")
	}
}

func TestFingerprintSeparatesConfigurations(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()

	// Same dim, different seeds: Name() alone would collide.
	r1, _ := model.NewRandomEmbedder(16, 1)
	r2, _ := model.NewRandomEmbedder(16, 2)
	v1, _ := s.Get(ctx, r1, "token")
	v2, _ := s.Get(ctx, r2, "token")
	if vecsEqual(v1, v2) {
		t.Error("random embedders with different seeds shared a cache entry")
	}

	// Same dim, with and without synonym clusters.
	plain, _ := model.NewHashEmbedder(16)
	syn, _ := model.NewHashEmbedder(16, model.WithSynonyms(map[string][]string{"bbq": {"token", "barbecue"}}))
	p1, _ := s.Get(ctx, plain, "token")
	p2, _ := s.Get(ctx, syn, "token")
	if vecsEqual(p1, p2) {
		t.Error("hash embedders with different clusters shared a cache entry")
	}
	if got := s.Stats().Entries; got != 4 {
		t.Errorf("entries = %d, want 4 distinct", got)
	}
}

func TestWrapperFingerprintShares(t *testing.T) {
	inner := testModel(t, 16)
	counting := model.NewCountingModel(inner)
	s := New(Config{})
	ctx := context.Background()
	if _, err := s.Get(ctx, inner, "shared"); err != nil {
		t.Fatal(err)
	}
	// The counting wrapper embeds identically, so it must hit the entry
	// cached under the unwrapped model.
	if _, err := s.Get(ctx, counting, "shared"); err != nil {
		t.Fatal(err)
	}
	if calls := counting.Calls(); calls != 0 {
		t.Errorf("wrapper missed the shared entry: %d calls", calls)
	}
	if s.Stats().Entries != 1 {
		t.Errorf("entries = %d, want 1 shared", s.Stats().Entries)
	}
}

// TestMergedWaiterSurvivesOwnerCancellation: a query merged into another
// query's in-flight embed must not fail when the *owner* is cancelled —
// it retries with its own live context.
func TestMergedWaiterSurvivesOwnerCancellation(t *testing.T) {
	bm := &blockingModel{inner: testModel(t, 16), gate: make(chan struct{})}
	s := New(Config{})

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aErr := make(chan error, 1)
	go func() {
		// Threads/Chunk 1: embeds "x" first (blocking on the gate), so the
		// "y" flight is still pending when ctxA is cancelled.
		_, _, err := s.EmbedAll(ctxA, bm, []string{"x", "y"}, BatchOptions{Threads: 1, ChunkSize: 1})
		aErr <- err
	}()
	for bm.started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// B merges into A's pending "y" flight with a live context.
	bErr := make(chan error, 1)
	var bVec []float32
	go func() {
		v, err := s.Get(context.Background(), bm, "y")
		bVec = v
		bErr <- err
	}()
	for s.Stats().Merged == 0 {
		time.Sleep(time.Millisecond)
	}

	cancelA()
	close(bm.gate)

	if err := <-aErr; err == nil {
		t.Error("cancelled owner reported no error")
	}
	if err := <-bErr; err != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", err)
	}
	if !vecsEqual(bVec, normalized(t, bm.inner, "y")) {
		t.Error("waiter got a wrong vector after retry")
	}
}

func TestEmbedAllThreadsOverride(t *testing.T) {
	// A store configured single-threaded embeds in parallel when the
	// caller (the executor honoring Options.Threads) asks for it.
	bm := &blockingModel{inner: testModel(t, 16), gate: make(chan struct{})}
	s := New(Config{Threads: 1})
	done := make(chan error, 1)
	go func() {
		_, _, err := s.EmbedAll(context.Background(), bm, []string{"a", "b", "c", "d"}, BatchOptions{Threads: 4, ChunkSize: 1})
		done <- err
	}()
	// With 4 workers and chunk size 1, all four embeds start concurrently.
	deadline := time.After(5 * time.Second)
	for bm.started.Load() < 4 {
		select {
		case <-deadline:
			t.Fatalf("only %d concurrent embeds; Threads override ignored", bm.started.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(bm.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPutRangeModelEntries(t *testing.T) {
	s := New(Config{})
	m := testModel(t, 16)
	fp := Fingerprint(m)

	// Put is the loader path: no model, no stats, no hook.
	var hookCalls atomic.Int64
	s.SetOnInsert(func(fp, input string, vec []float32) { hookCalls.Add(1) })
	want := map[string][]float32{}
	for i := 0; i < 50; i++ {
		in := fmt.Sprintf("loaded-%d", i)
		v := normalized(t, m, in)
		s.Put(fp, in, v)
		want[in] = v
	}
	s.Put("other/8", "foreign", []float32{1, 0, 0})
	if got := s.Len(); got != 51 {
		t.Fatalf("Len = %d, want 51", got)
	}
	if hookCalls.Load() != 0 {
		t.Errorf("Put fired the insert hook %d times; the loader path must not re-persist", hookCalls.Load())
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.ModelCalls != 0 {
		t.Errorf("Put moved lookup stats: %+v", st)
	}

	// Loaded entries are served as cache hits with correct values.
	got, err := s.Get(context.Background(), m, "loaded-7")
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(got, want["loaded-7"]) {
		t.Error("Put entry served wrong vector")
	}
	if st := s.Stats(); st.Hits != 1 || st.ModelCalls != 0 {
		t.Errorf("loaded entry was not a pure hit: %+v", st)
	}

	// Range exports every entry exactly once, split back into (fp, input).
	seen := map[string]int{}
	s.Range(func(gotFP, input string, vec []float32) bool {
		if gotFP == fp {
			if !vecsEqual(vec, want[input]) {
				t.Errorf("Range vector mismatch for %q", input)
			}
		} else if gotFP != "other/8" || input != "foreign" {
			t.Errorf("Range surfaced unknown entry %q/%q", gotFP, input)
		}
		seen[gotFP+"\x00"+input]++
		return true
	})
	if len(seen) != 51 {
		t.Errorf("Range visited %d entries, want 51", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("Range visited %q %d times", k, n)
		}
	}

	// Early termination.
	visits := 0
	s.Range(func(string, string, []float32) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("Range ignored false return (%d visits)", visits)
	}

	// Per-model counts: the /stats surface.
	entries := s.ModelEntries()
	if entries[fp] != 50 || entries["other/8"] != 1 {
		t.Errorf("ModelEntries = %v", entries)
	}
}

func TestOnInsertHookObservesModelComputedEntries(t *testing.T) {
	s := New(Config{})
	m := testModel(t, 8)
	fp := Fingerprint(m)

	type rec struct {
		fp, input string
		vec       []float32
	}
	var mu sync.Mutex
	var got []rec
	s.SetOnInsert(func(fp, input string, vec []float32) {
		mu.Lock()
		got = append(got, rec{fp, input, vec})
		mu.Unlock()
	})

	if _, err := s.Get(context.Background(), m, "alpha"); err != nil {
		t.Fatal(err)
	}
	// A hit must not re-fire the hook.
	if _, err := s.Get(context.Background(), m, "alpha"); err != nil {
		t.Fatal(err)
	}
	// Batch inserts fire per distinct new input.
	if _, _, err := s.EmbedAll(context.Background(), m, []string{"beta", "alpha", "beta", "gamma"}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("hook fired %d times, want 3 (alpha, beta, gamma)", len(got))
	}
	inputs := map[string]bool{}
	for _, r := range got {
		if r.fp != fp {
			t.Errorf("hook fingerprint %q, want %q", r.fp, fp)
		}
		if !vecsEqual(r.vec, normalized(t, m, r.input)) {
			t.Errorf("hook vector for %q differs from the cached embedding", r.input)
		}
		inputs[r.input] = true
	}
	if !inputs["alpha"] || !inputs["beta"] || !inputs["gamma"] {
		t.Errorf("hook inputs = %v", inputs)
	}

	// Detach: no further callbacks.
	s.SetOnInsert(nil)
	if _, err := s.Get(context.Background(), m, "delta"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("hook fired after detach")
	}
}

// TestRetire: a retired entry is evicted two Retire calls later unless
// something used it in between; byte and entry accounting follow.
func TestRetire(t *testing.T) {
	m := testModel(t, 16)
	s := New(Config{})
	ctx := context.Background()
	fp := Fingerprint(m)
	for _, in := range []string{"gone", "shared", "kept"} {
		if _, err := s.Get(ctx, m, in); err != nil {
			t.Fatal(err)
		}
	}
	full := s.Stats()

	s.Retire(fp, []string{"gone", "shared", "never-cached"})
	s.Retire(fp, nil)
	if got := s.Len(); got != 3 {
		t.Fatalf("Retire evicted within the grace period: %d entries left, want 3", got)
	}
	// Another owner of "shared" reads it during the grace period.
	if _, err := s.Get(ctx, m, "shared"); err != nil {
		t.Fatal(err)
	}
	s.Retire(fp, nil)

	for in, want := range map[string]bool{"gone": false, "shared": true, "kept": true} {
		if got := s.Contains(m, in); got != want {
			t.Errorf("Contains(%q) = %v, want %v", in, got, want)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes >= full.Bytes {
		t.Errorf("after retiring one entry: %+v (before: %+v)", st, full)
	}
	if got := s.ModelEntries()[fp]; got != 2 {
		t.Errorf("ModelEntries = %d, want 2", got)
	}
	// The evicted text comes back with one model call, like any miss.
	if _, err := s.Get(ctx, m, "gone"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ModelCalls; got != full.ModelCalls+1 {
		t.Errorf("model calls = %d, want %d", got, full.ModelCalls+1)
	}
}

// TestEmbedAllWarmAllocs: an all-hit batch allocates its result and a
// key buffer, nothing per row.
func TestEmbedAllWarmAllocs(t *testing.T) {
	m := testModel(t, 16)
	s := New(Config{})
	ctx := context.Background()
	inputs := words(rand.New(rand.NewSource(5)), 512)
	if _, _, err := s.EmbedAll(ctx, m, inputs, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Hits
	allocs := testing.AllocsPerRun(10, func() {
		if _, bs, err := s.EmbedAll(ctx, m, inputs, BatchOptions{}); err != nil || bs.Hits != int64(len(inputs)) {
			t.Fatalf("warm batch: %+v, %v", bs, err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm EmbedAll of %d rows allocates %.0f times, want a handful per call", len(inputs), allocs)
	}
	if got := s.Stats().Hits - before; got != 11*int64(len(inputs)) {
		t.Errorf("store counted %d hits over 11 warm calls of %d rows", got, len(inputs))
	}
}

// TestEmbedAllShardSelectionMatchesKeyHash: EmbedAll hashes the
// fingerprint prefix once and continues over each input; that must pick
// the shard shardFor picks from the whole key, or entries Get, Put and a
// persisted store placed would never be hit.
func TestEmbedAllShardSelectionMatchesKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := New(Config{Shards: 64})
	for _, fp := range []string{"", "hash/16", Fingerprint(testModel(t, 16))} {
		prefix := fnv1a(fnvOffset, fp+"\x00")
		for _, in := range append(words(rng, 200), "", "\x00", "naïve café") {
			if s.shardAt(fnv1a(prefix, in)) != s.shardFor(key(fp, in)) {
				t.Fatalf("fingerprint %q input %q: prefix hash picks another shard", fp, in)
			}
		}
	}
	// End to end, in both directions: rows Get cached are EmbedAll hits,
	// and rows EmbedAll cached are Get hits.
	m := model.NewCountingModel(testModel(t, 16))
	ctx := context.Background()
	inputs := make([]string, 100)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("distinct row %d", i)
	}
	for _, in := range inputs[:50] {
		if _, err := s.Get(ctx, m, in); err != nil {
			t.Fatal(err)
		}
	}
	if _, bs, err := s.EmbedAll(ctx, m, inputs, BatchOptions{}); err != nil || bs.Hits != 50 || bs.Misses != 50 {
		t.Fatalf("after 50 Gets: batch stats %+v, %v", bs, err)
	}
	m.Reset()
	for _, in := range inputs {
		if _, err := s.Get(ctx, m, in); err != nil {
			t.Fatal(err)
		}
	}
	if m.Calls() != 0 {
		t.Errorf("%d model calls for rows EmbedAll had cached", m.Calls())
	}
}
