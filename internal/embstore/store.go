// Package embstore is the shared, cross-query embedding store: a sharded,
// concurrency-safe cache of model embeddings keyed by (model fingerprint,
// input) with single-flight deduplication and a batch scheduler that
// coalesces cache misses into chunked parallel model calls.
//
// The paper's central cost observation is that the embedding operator E_µ
// dominates end-to-end join time, which is why the optimizer prefetches
// embeddings once per tuple instead of once per pair. This package extends
// that reuse across queries: every Query.Run, CLI invocation, and benchmark
// repetition over the same corpus pays the model cost once, after which
// lookups are memory reads. Under concurrent traffic, requests for the same
// input string are merged into one in-flight model call (single flight),
// memory is bounded by a per-shard LRU eviction policy, and an owner that
// knows inputs have gone away (deleted rows) can Retire them early.
//
// The store observes the Model contract: embeddings handed out are fresh,
// caller-owned, unit-norm copies.
package embstore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"ejoin/internal/model"
	"ejoin/internal/vec"
)

// Config tunes a Store. The zero value is usable: 32 shards, unbounded
// memory, chunk size 64, GOMAXPROCS embedding threads.
type Config struct {
	// Shards is the number of lock shards (rounded up to a power of two).
	// More shards means less contention under concurrent queries.
	Shards int
	// MaxBytes bounds the store's resident embedding bytes across all
	// shards; 0 means unbounded. Eviction is LRU per shard.
	MaxBytes int64
	// ChunkSize is how many misses one scheduler task embeds before
	// picking up the next chunk (batching amortizes scheduling overhead
	// while keeping workers load-balanced).
	ChunkSize int
	// Threads caps the batch scheduler's parallelism; <=0 uses GOMAXPROCS.
	Threads int
}

// Stats is the store's observability surface.
type Stats struct {
	// Hits is the number of lookups served from the cache.
	Hits int64 `json:"hits"`
	// Misses is the number of lookups that triggered a model call.
	Misses int64 `json:"misses"`
	// Merged is the number of lookups that joined another caller's
	// in-flight model call (single-flight deduplication) or a duplicate
	// within one batch.
	Merged int64 `json:"merged"`
	// Evictions is the number of entries dropped: by the LRU policy under
	// the byte budget, or because their owner retired them (Retire).
	Evictions int64 `json:"evictions"`
	// ModelCalls is the number of Model.Embed invocations the store made.
	ModelCalls int64 `json:"model_calls"`
	// Entries is the current number of cached embeddings.
	Entries int `json:"entries"`
	// Bytes is the current resident size (vectors + keys + overhead).
	Bytes int64 `json:"bytes"`
}

// HitRatio is Hits / (Hits + Misses + Merged), the fraction of lookups
// that did not wait on a fresh model call of their own.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Merged
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Fingerprinter lets a model override the cache identity derived from
// Name/Dim (e.g. a remote model whose version string changes semantics).
type Fingerprinter interface {
	Fingerprint() string
}

// Fingerprint is the model component of a cache key. Two models with the
// same fingerprint are assumed to embed identically.
func Fingerprint(m model.Model) string {
	if f, ok := m.(Fingerprinter); ok {
		return f.Fingerprint()
	}
	return m.Name() + "/" + strconv.Itoa(m.Dim())
}

// entry is one cached embedding.
type entry struct {
	key string
	vec []float32
	// retired is set by Retire and cleared by any later use; the second
	// Retire call after that evicts the entries still carrying it.
	retired bool
}

// flight is one in-flight model call other lookups can merge into.
type flight struct {
	done chan struct{}
	vec  []float32
	err  error
}

// shard is one lock domain: a map + LRU list + its share of the byte
// budget + the in-flight table for keys hashing here.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*flight
	bytes    int64
	maxBytes int64 // 0 = unbounded
}

// Store is the shared embedding store. It is safe for concurrent use by
// any number of queries and goroutines.
type Store struct {
	cfg    Config
	shards []*shard

	// onInsert, when set, observes every model-computed entry the store
	// caches (the durable layer's write-behind hook). Loaded atomically so
	// SetOnInsert is safe while lookups run.
	onInsert atomic.Pointer[func(fp, input string, vec []float32)]

	// countsMu guards counts, the per-fingerprint entry tally maintained
	// at insert/evict time so ModelEntries is O(models), not a scan of
	// every shard under its lock.
	countsMu sync.Mutex
	counts   map[string]int

	// retireMu serializes Retire calls; retiring holds the keys the last
	// two calls marked, older first. Each call sweeps the older set.
	retireMu sync.Mutex
	retiring [2][]string

	hits       atomic.Int64
	misses     atomic.Int64
	merged     atomic.Int64
	evictions  atomic.Int64
	modelCalls atomic.Int64
}

// entryOverhead approximates per-entry bookkeeping bytes (map bucket,
// list element, headers) for the byte budget.
const entryOverhead = 96

// New builds a store from cfg (zero value = defaults).
func New(cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = 32
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	cfg.Shards = n
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	s := &Store{cfg: cfg, shards: make([]*shard, n), counts: make(map[string]int)}
	perShard := int64(0)
	if cfg.MaxBytes > 0 {
		perShard = cfg.MaxBytes / int64(n)
		if perShard < 1 {
			perShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:  make(map[string]*list.Element),
			lru:      list.New(),
			inflight: make(map[string]*flight),
			maxBytes: perShard,
		}
	}
	return s
}

// key builds the cache key for one (fingerprint, input) pair.
func key(fp, input string) string { return fp + "\x00" + input }

// splitKey undoes key: the fingerprint and input of one cache key.
func splitKey(k string) (fp, input string) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}

// SetOnInsert installs fn as the store's insert observer: it is invoked
// once for every entry the store caches from a model call (not for
// entries loaded via Put, so a startup loader does not re-persist what it
// just read). fn runs outside shard locks but on the inserting
// goroutine's path — it should hand off quickly (e.g. enqueue to a
// write-behind channel). Pass nil to detach.
func (s *Store) SetOnInsert(fn func(fp, input string, vec []float32)) {
	if fn == nil {
		s.onInsert.Store(nil)
		return
	}
	s.onInsert.Store(&fn)
}

// notifyInsert invokes the insert observer, giving it its own copy.
func (s *Store) notifyInsert(k string, v []float32) {
	p := s.onInsert.Load()
	if p == nil {
		return
	}
	fp, input := splitKey(k)
	(*p)(fp, input, cloneVec(v))
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset uint64 = 14695981039346656037

// fnv1a continues an FNV-1a hash h over b, so a key's hash can be built
// from the hash of a shared prefix.
func fnv1a(h uint64, b string) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// shardFor picks the lock domain for a key (FNV-1a).
func (s *Store) shardFor(k string) *shard { return s.shardAt(fnv1a(fnvOffset, k)) }

// shardAt is the lock domain of the keys hashing to h.
func (s *Store) shardAt(h uint64) *shard { return s.shards[h&uint64(len(s.shards)-1)] }

// Stats snapshots the store's counters and resident size.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Merged:     s.merged.Load(),
		Evictions:  s.evictions.Load(),
		ModelCalls: s.modelCalls.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// Contains reports whether (m, input) is cached, without promoting the
// entry or touching statistics — the optimizer's sampling probe.
func (s *Store) Contains(m model.Model, input string) bool {
	k := key(Fingerprint(m), input)
	sh := s.shardFor(k)
	sh.mu.Lock()
	_, ok := sh.entries[k]
	sh.mu.Unlock()
	return ok
}

// Len is the current number of cached embeddings.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Reset drops every cached entry and zeroes the statistics (in-flight
// calls are unaffected: they complete and repopulate the empty cache).
func (s *Store) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.entries = make(map[string]*list.Element)
		sh.lru.Init()
		sh.bytes = 0
		sh.mu.Unlock()
	}
	s.hits.Store(0)
	s.misses.Store(0)
	s.merged.Store(0)
	s.evictions.Store(0)
	s.modelCalls.Store(0)
	s.countsMu.Lock()
	s.counts = make(map[string]int)
	s.countsMu.Unlock()
}

// Get returns the unit-norm embedding of input under m, from cache when
// present. Concurrent Gets for the same key share one model call; the
// returned slice is a fresh copy owned by the caller.
func (s *Store) Get(ctx context.Context, m model.Model, input string) ([]float32, error) {
	k := key(Fingerprint(m), input)
	sh := s.shardFor(k)

	for {
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok {
			out := cloneVec(sh.touch(el).vec)
			sh.mu.Unlock()
			s.hits.Add(1)
			return out, nil
		}
		if fl, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			s.merged.Add(1)
			v, err := awaitFlight(ctx, fl)
			if err != nil && ctx.Err() == nil && isCtxErr(err) {
				// The owning caller was cancelled, not us: its cancellation
				// must not fail this lookup. Retry — typically becoming the
				// new owner, since the failed flight is gone.
				continue
			}
			return v, err
		}
		fl := &flight{done: make(chan struct{})}
		sh.inflight[k] = fl
		sh.mu.Unlock()
		s.misses.Add(1)

		v, err := s.embedOne(ctx, m, input)
		s.publish(sh, k, fl, v, err)
		if err != nil {
			return nil, err
		}
		return cloneVec(v), nil
	}
}

// embedOne runs one model call, validates the dimensionality, and returns
// a fresh normalized vector.
func (s *Store) embedOne(ctx context.Context, m model.Model, input string) ([]float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("embstore: embed cancelled: %w", err)
	}
	s.modelCalls.Add(1)
	e, err := m.Embed(input)
	if err != nil {
		return nil, fmt.Errorf("embstore: embedding %q: %w", truncate(input), err)
	}
	if len(e) != m.Dim() {
		return nil, fmt.Errorf("embstore: model %s returned dim %d, declared %d", m.Name(), len(e), m.Dim())
	}
	v := make([]float32, len(e))
	vec.NormalizeInto(v, e)
	return v, nil
}

// publish resolves a flight: caches the result on success, wakes waiters
// either way. Errors are not cached (the next lookup retries).
func (s *Store) publish(sh *shard, k string, fl *flight, v []float32, err error) {
	sh.mu.Lock()
	delete(sh.inflight, k)
	if err == nil {
		s.insertLocked(sh, k, v)
	}
	sh.mu.Unlock()
	if err == nil {
		s.notifyInsert(k, v)
	}
	fl.vec, fl.err = v, err
	close(fl.done)
}

// Put inserts a pre-computed, unit-norm embedding for (fp, input) — the
// durable layer's startup loader path. It bypasses the model, does not
// touch hit/miss statistics, and does not fire the insert observer (a
// loaded entry is already persisted). An existing entry wins: replayed
// duplicates are no-ops. Eviction applies as usual, so a log larger than
// the memory budget loads its most recently appended suffix.
func (s *Store) Put(fp, input string, v []float32) {
	k := key(fp, input)
	sh := s.shardFor(k)
	sh.mu.Lock()
	s.insertLocked(sh, k, cloneVec(v))
	sh.mu.Unlock()
}

// Range calls fn for every cached entry until fn returns false. The
// vector passed to fn is a fresh copy; iteration order is unspecified.
// Each shard's snapshot is taken under its lock, but fn runs outside any
// lock, so fn may call back into the store. Entries inserted or evicted
// concurrently may or may not be observed — Range is a snapshot-ish
// export iterator (the persister's compaction source and the /stats
// per-model counter), not a consistency point.
func (s *Store) Range(fn func(fp, input string, vec []float32) bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		snap := make([]*entry, 0, len(sh.entries))
		for _, el := range sh.entries {
			snap = append(snap, el.Value.(*entry))
		}
		sh.mu.Unlock()
		for _, e := range snap {
			fp, input := splitKey(e.key)
			if !fn(fp, input, cloneVec(e.vec)) {
				return
			}
		}
	}
}

// ModelEntries counts cached entries per model fingerprint — the /stats
// surface PR 1 could not report because the store had no export
// iterator. Served from counters maintained at insert/evict time, so
// stats scrapers never walk the cache under shard locks.
func (s *Store) ModelEntries() map[string]int {
	s.countsMu.Lock()
	defer s.countsMu.Unlock()
	out := make(map[string]int, len(s.counts))
	for fp, n := range s.counts {
		out[fp] = n
	}
	return out
}

// countEntry adjusts the per-fingerprint tally for key k by delta,
// dropping zeroed fingerprints so evicted models disappear from stats.
func (s *Store) countEntry(k string, delta int) {
	fp, _ := splitKey(k)
	s.countsMu.Lock()
	s.counts[fp] += delta
	if s.counts[fp] <= 0 {
		delete(s.counts, fp)
	}
	s.countsMu.Unlock()
}

// insertLocked adds an entry and evicts LRU tails past the shard budget.
// The caller holds sh.mu. The newly inserted entry itself is never
// evicted, so a single oversized embedding still caches.
func (s *Store) insertLocked(sh *shard, k string, v []float32) {
	if el, ok := sh.entries[k]; ok {
		// Lost a rare batch/single race; keep the existing entry.
		sh.touch(el)
		return
	}
	el := sh.lru.PushFront(&entry{key: k, vec: v})
	sh.entries[k] = el
	sh.bytes += entryBytes(k, v)
	s.countEntry(k, 1)
	if sh.maxBytes <= 0 {
		return
	}
	for sh.bytes > sh.maxBytes && sh.lru.Len() > 1 {
		tail := sh.lru.Back()
		if tail == nil || tail == el {
			break
		}
		s.evictLocked(sh, tail)
	}
}

// touch records a use of el: most recently used, and no longer retired.
func (sh *shard) touch(el *list.Element) *entry {
	sh.lru.MoveToFront(el)
	e := el.Value.(*entry)
	e.retired = false
	return e
}

func (s *Store) evictLocked(sh *shard, el *list.Element) {
	ev := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.entries, ev.key)
	sh.bytes -= entryBytes(ev.key, ev.vec)
	s.countEntry(ev.key, -1)
	s.evictions.Add(1)
}

// Retire tells the store that nothing its caller owns references inputs
// under fingerprint fp any more — the rows holding them were deleted or
// overwritten. Their entries are marked now and evicted two Retire calls
// later if still marked. Any use in between clears the mark, so a text
// that also lives in another row, table or engine sharing the store
// survives as long as a query touches it within two mutations; at worst
// (a run of mutations with no query among them) such a text costs one
// model call to bring back.
//
// Without this, a table under upsert/delete churn grows the store by
// every text it ever held: dead entries are cold, but a byte budget sized
// for the working set is never reached by them alone.
func (s *Store) Retire(fp string, inputs []string) {
	keys := make([]string, len(inputs))
	for i, in := range inputs {
		keys[i] = key(fp, in)
	}
	s.retireMu.Lock()
	defer s.retireMu.Unlock()
	for _, k := range s.retiring[0] {
		sh := s.shardFor(k)
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok && el.Value.(*entry).retired {
			s.evictLocked(sh, el)
		}
		sh.mu.Unlock()
	}
	for _, k := range keys {
		sh := s.shardFor(k)
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok {
			el.Value.(*entry).retired = true
		}
		sh.mu.Unlock()
	}
	s.retiring[0], s.retiring[1] = s.retiring[1], keys
}

func entryBytes(k string, v []float32) int64 {
	return int64(len(v)*4+len(k)) + entryOverhead
}

func cloneVec(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	return out
}

func awaitFlight(ctx context.Context, fl *flight) ([]float32, error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("embstore: wait cancelled: %w", ctx.Err())
	}
	if fl.err != nil {
		return nil, fl.err
	}
	return cloneVec(fl.vec), nil
}

// isCtxErr reports whether err stems from a context cancellation or
// deadline — the class of flight failures a waiter with a live context
// should retry rather than inherit.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func truncate(s string) string {
	const max = 32
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
