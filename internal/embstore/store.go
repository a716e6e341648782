// Package embstore is the shared, cross-query embedding store: a sharded,
// concurrency-safe cache of model embeddings with single-flight
// deduplication and a batch scheduler that coalesces cache misses into
// chunked parallel model calls.
//
// The paper's central cost observation is that the embedding operator E_µ
// dominates end-to-end join time, which is why the optimizer prefetches
// embeddings once per tuple instead of once per pair. This package extends
// that reuse across queries: every query, CLI invocation, and benchmark
// repetition over the same corpus pays the model cost once, after which
// lookups are memory reads. Under concurrent traffic, requests for the same
// input string are merged into one in-flight model call (single flight).
//
// The store holds two kinds of entry under one LRU and one byte budget
// (Config.MaxBytes, store-wide):
//
//   - a per-text entry, keyed by (model fingerprint, input): what Get,
//     EmbedAll and the durable loader (Put) serve;
//   - a column chunk (chunk.go), keyed by (model fingerprint, table
//     incarnation, column, chunk index): ChunkRows consecutive physical
//     rows of a table's embedded text column, which a scan reads a block
//     at a time. A chunk adopts the per-text entries it is assembled from:
//     their vectors leave the store (which is not an eviction), and each
//     entry becomes a reference to its chunk row, so each vector is held
//     once and a lookup by text still finds it.
//
// Eviction is least-recently-used across the whole store. A column chunk
// the LRU evicts is not lost: it is written to its slot of the store's
// spill file (spill.go), and the next miss on its key reads it back
// instead of calling the model, so each text is embedded once even when
// a column outgrows MaxBytes. A per-text entry is simply dropped. The
// owner of a table drops the chunks whose rows it all deleted, resident
// or spilled (DropChunk), packs those mostly deleted (Shed), and drops a
// whole lineage once no query can pin it (DropLineage), after carrying a
// compacted table's vectors into its new one (Carry); nothing else needs
// retiring. Close releases the spill file.
//
// The store observes the Model contract: per-text lookups hand out fresh,
// caller-owned, unit-norm copies; chunks are read-only.
package embstore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
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
	// MaxBytes bounds the store's resident bytes, per-text entries and
	// column chunks together, across all shards; 0 means unbounded.
	// Eviction is least-recently-used store-wide.
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
	// Hits is the number of lookups served from the cache; a column chunk
	// counts every row it serves.
	Hits int64 `json:"hits"`
	// Misses is the number of lookups that triggered a model call.
	Misses int64 `json:"misses"`
	// Restored is the number of needed rows chunk misses read back from the
	// spill file instead of embedding them; they are neither hits nor
	// misses.
	Restored int64 `json:"restored"`
	// Merged is the number of lookups that joined another caller's
	// in-flight model call (single-flight deduplication) or a duplicate
	// within one batch.
	Merged int64 `json:"merged"`
	// Evictions is the number of entries (per-text or chunk) the LRU
	// policy dropped under the byte budget. Entries a chunk adopts and
	// chunks their owner drops are not evictions.
	Evictions int64 `json:"evictions"`
	// Spilled is the number of evicted chunks written to the spill file (an
	// eviction whose slot already held the same rows writes nothing).
	Spilled int64 `json:"spilled"`
	// ModelCalls is the number of Model.Embed invocations the store made.
	ModelCalls int64 `json:"model_calls"`
	// Entries is the current number of cached vectors: one per per-text
	// entry, plus the rows each column chunk holds.
	Entries int `json:"entries"`
	// Bytes is the current resident size (vectors + keys + overhead).
	Bytes int64 `json:"bytes"`
}

// HitRatio is Hits / (Hits + Misses + Merged + Restored), the fraction of
// lookups served from memory.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Merged + s.Restored
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

// entry is one LRU element: a per-text embedding (key, vec), a per-text
// reference to the chunk row that adopted it (key, at, row), or a column
// chunk (c).
type entry struct {
	key string
	vec []float32
	at  *ChunkKey // shared by every reference into one chunk
	row int32
	c   *Chunk
	// used is the store tick of the entry's last use. Each shard's list is
	// ordered by it, so the store's least recently used entry is the
	// oldest of the shard tails.
	used uint64
}

// vectors is how many embeddings the entry holds.
func (e *entry) vectors() int {
	switch {
	case e.c != nil:
		return e.c.filled.Count()
	case e.at != nil:
		return 0
	}
	return 1
}

// fingerprint is the model the entry's vectors belong to.
func (e *entry) fingerprint() string {
	if e.c != nil {
		return e.c.key.Fingerprint
	}
	fp, _ := splitKey(e.key)
	return fp
}

// size is the entry's charge against the byte budget.
func (e *entry) size() int64 {
	if e.c != nil {
		return int64(len(e.c.vecs.Data)*4+len(e.c.key.Fingerprint)+len(e.c.key.Column)) + entryOverhead
	}
	return int64(len(e.vec)*4+len(e.key)) + entryOverhead
}

// flight is one in-flight model call (or chunk build) other lookups can
// merge into.
type flight struct {
	done chan struct{}
	vec  []float32
	err  error
}

// shard is one lock domain: the per-text and chunk maps, one LRU list
// over both, and the in-flight tables for keys hashing here.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	chunks   map[ChunkKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*flight
	building map[ChunkKey]*flight
	// evicting holds the chunks trim dropped and has not yet written to
	// their spill slots, so that a miss in between finds their vectors.
	evicting map[ChunkKey]*Chunk
	bytes    int64
	vectors  int
}

// Store is the shared embedding store. It is safe for concurrent use by
// any number of queries and goroutines.
type Store struct {
	cfg    Config
	shards []*shard

	// onInsert, when set, observes every model-computed vector the store
	// produces (the durable layer's write-behind hook). Loaded atomically
	// so SetOnInsert is safe while lookups run.
	onInsert atomic.Pointer[func(fp, input string, vec []float32)]

	// countsMu guards counts, the per-fingerprint vector tally maintained
	// at insert/evict time so ModelEntries is O(models), not a scan of
	// every shard under its lock.
	countsMu sync.Mutex
	counts   map[string]int

	// bytes is the resident size across shards; tick orders entry uses for
	// the store-wide LRU.
	bytes atomic.Int64
	tick  atomic.Uint64

	// spill is the second tier evicted column chunks go to.
	spill spill
	// gone is the lineages their owners dropped (DropLineage).
	gone lineages

	hits       atomic.Int64
	misses     atomic.Int64
	restored   atomic.Int64
	merged     atomic.Int64
	evictions  atomic.Int64
	spilled    atomic.Int64
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
	s := &Store{cfg: cfg, shards: make([]*shard, n), counts: make(map[string]int), spill: spill{slots: make(map[ChunkKey]slot)}}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:  make(map[string]*list.Element),
			chunks:   make(map[ChunkKey]*list.Element),
			lru:      list.New(),
			inflight: make(map[string]*flight),
			building: make(map[ChunkKey]*flight),
			evicting: make(map[ChunkKey]*Chunk),
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
// once for every vector the store computes with a model call, whether it
// is cached per text or goes straight into a column chunk (not for
// entries loaded via Put, so a startup loader does not re-persist what it
// just read). fn runs outside shard locks but on the inserting goroutine's
// path — it should hand off quickly (e.g. enqueue to a write-behind
// channel). Pass nil to detach.
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
		Restored:   s.restored.Load(),
		Merged:     s.merged.Load(),
		Evictions:  s.evictions.Load(),
		Spilled:    s.spilled.Load(),
		ModelCalls: s.modelCalls.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Entries += sh.vectors
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// Len is the current number of cached vectors (see Stats.Entries).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.vectors
		sh.mu.Unlock()
	}
	return n
}

// Reset drops every cached entry and spilled chunk and zeroes the
// statistics (in-flight calls are unaffected: they complete and
// repopulate the empty cache). Dropped lineages stay dropped.
func (s *Store) Reset() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		s.bytes.Add(-sh.bytes)
		sh.entries = make(map[string]*list.Element)
		sh.chunks = make(map[ChunkKey]*list.Element)
		sh.lru.Init()
		sh.bytes, sh.vectors = 0, 0
		sh.mu.Unlock()
	}
	s.spill.reset()
	s.hits.Store(0)
	s.misses.Store(0)
	s.restored.Store(0)
	s.merged.Store(0)
	s.evictions.Store(0)
	s.spilled.Store(0)
	s.modelCalls.Store(0)
	s.countsMu.Lock()
	s.counts = make(map[string]int)
	s.countsMu.Unlock()
}

// Close releases the spill file. The store stays usable, memory-only: an
// evicted chunk is dropped again. Close is idempotent.
func (s *Store) Close() error { return s.spill.close() }

// Get returns the unit-norm embedding of input under m, from cache when
// present. Concurrent Gets for the same key share one model call; the
// returned slice is a fresh copy owned by the caller.
func (s *Store) Get(ctx context.Context, m model.Model, input string) ([]float32, error) {
	k := key(Fingerprint(m), input)
	sh := s.shardFor(k)

	for {
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok {
			e := sh.touch(el, s.tick.Add(1))
			if e.at == nil {
				out := cloneVec(e.vec)
				sh.mu.Unlock()
				s.hits.Add(1)
				return out, nil
			}
			sh.mu.Unlock()
			out := make([]float32, m.Dim())
			if s.resolve(sh, k, e, out) {
				s.hits.Add(1)
				return out, nil
			}
			continue // the chunk let the row go: look the text up afresh
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
		s.publish(sh, k, fl, v, err, true)
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

// publish resolves a flight: caches the result on success when keep is
// set, reports it to the insert observer, and wakes waiters either way.
// Errors are not cached (the next lookup retries).
func (s *Store) publish(sh *shard, k string, fl *flight, v []float32, err error, keep bool) {
	var el *list.Element
	sh.mu.Lock()
	delete(sh.inflight, k)
	if err == nil && keep {
		el = s.insertLocked(sh, k, v)
	}
	sh.mu.Unlock()
	if err == nil {
		s.notifyInsert(k, v)
	}
	fl.vec, fl.err = v, err
	close(fl.done)
	s.trim(el)
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
	el := s.insertLocked(sh, k, cloneVec(v))
	sh.mu.Unlock()
	s.trim(el)
}

// Range calls fn for every per-text vector until fn returns false (the
// vectors column chunks adopted are read with StoredChunk). The vector passed to fn is a fresh
// copy; iteration order is unspecified. Each shard's snapshot is taken
// under its lock, but fn runs outside any lock, so fn may call back into
// the store. Entries inserted or evicted concurrently may or may not be
// observed — Range is a snapshot-ish export iterator (the durable
// log's compaction source), not a consistency point.
func (s *Store) Range(fn func(fp, input string, vec []float32) bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		snap := make([]*entry, 0, len(sh.entries))
		for _, el := range sh.entries {
			if e := el.Value.(*entry); e.at == nil {
				snap = append(snap, e)
			}
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

// ModelEntries counts cached vectors per model fingerprint (see
// Stats.Entries), served from counters maintained at insert/evict time,
// so stats scrapers never walk the cache under shard locks.
func (s *Store) ModelEntries() map[string]int {
	s.countsMu.Lock()
	defer s.countsMu.Unlock()
	out := make(map[string]int, len(s.counts))
	for fp, n := range s.counts {
		out[fp] = n
	}
	return out
}

// insertLocked caches a per-text entry, returning its element (nil when
// the key was already cached: a rare batch/single race, and the existing
// entry wins). The caller holds sh.mu and calls trim with the element
// after releasing it.
func (s *Store) insertLocked(sh *shard, k string, v []float32) *list.Element {
	if el, ok := sh.entries[k]; ok {
		sh.touch(el, s.tick.Add(1))
		return nil
	}
	el := s.pushLocked(sh, &entry{key: k, vec: v})
	sh.entries[k] = el
	return el
}

// pushLocked makes e the shard's most recently used entry and charges it
// to the budget; chunk entries are also indexed here. The caller holds
// sh.mu.
func (s *Store) pushLocked(sh *shard, e *entry) *list.Element {
	e.used = s.tick.Add(1)
	el := sh.lru.PushFront(e)
	if e.c != nil {
		e.c.refs.Add(1) // the store's hold
		sh.chunks[e.c.key] = el
	}
	s.account(sh, e, 1)
	return el
}

// account adds (sign 1) or removes (sign -1) e's bytes and vectors.
func (s *Store) account(sh *shard, e *entry, sign int) {
	b, n := e.size()*int64(sign), e.vectors()*sign
	sh.bytes += b
	sh.vectors += n
	s.bytes.Add(b)
	fp := e.fingerprint()
	s.countsMu.Lock()
	s.counts[fp] += n
	if s.counts[fp] <= 0 {
		delete(s.counts, fp) // evicted models disappear from stats
	}
	s.countsMu.Unlock()
}

// touch records a use of el at tick now.
func (sh *shard) touch(el *list.Element, now uint64) *entry {
	sh.lru.MoveToFront(el)
	e := el.Value.(*entry)
	e.used = now
	return e
}

// resolve copies the vector a chunk adopted from the per-text entry e
// (key k in sh) into dst. When the chunk no longer holds that row (it was
// evicted, dropped, or shed the row) the reference is removed and resolve
// reports false. The caller holds no lock.
func (s *Store) resolve(sh *shard, k string, e *entry, dst []float32) bool {
	csh := s.chunkShard(*e.at)
	csh.mu.Lock()
	ok := false
	if el, found := csh.chunks[*e.at]; found {
		if c := el.Value.(*entry).c; c.filled.Has(int(e.row)) {
			copy(dst, c.Row(int(e.row)))
			ok = true
		}
	}
	csh.mu.Unlock()
	if !ok {
		sh.mu.Lock()
		if el, found := sh.entries[k]; found && el.Value.(*entry) == e {
			s.dropLocked(sh, el)
		}
		sh.mu.Unlock()
	}
	return ok
}

// dropLocked removes el from its shard without counting an eviction. A
// dropped chunk is returned with the store's hold, which the caller gives
// up (unref) once it is done with the chunk, after releasing sh.mu.
func (s *Store) dropLocked(sh *shard, el *list.Element) *Chunk {
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	if e.c != nil {
		delete(sh.chunks, e.c.key)
	} else {
		delete(sh.entries, e.key)
	}
	s.account(sh, e, -1)
	return e.c
}

// trim evicts least recently used entries store-wide until resident bytes
// fit the budget, writing each evicted chunk to the spill file once the
// victim's shard lock is released; until the write is done the chunk
// stays in the shard's evicting set, where a miss finds it. It never
// evicts keep (the entry just inserted, so one oversized entry still
// caches); a nil keep is a no-op, since nothing was added. The store's least recently used entry is the
// oldest of the shard tails; under concurrent use the choice is
// approximate.
func (s *Store) trim(keep *list.Element) {
	for keep != nil && s.cfg.MaxBytes > 0 && s.bytes.Load() > s.cfg.MaxBytes {
		var victim *shard
		oldest := uint64(math.MaxUint64)
		for _, sh := range s.shards {
			sh.mu.Lock()
			if el := sh.lru.Back(); el != nil && el != keep && el.Value.(*entry).used < oldest {
				victim, oldest = sh, el.Value.(*entry).used
			}
			sh.mu.Unlock()
		}
		if victim == nil {
			return
		}
		var c *Chunk
		victim.mu.Lock()
		if el := victim.lru.Back(); el != nil && el != keep {
			if c = s.dropLocked(victim, el); c != nil {
				victim.evicting[c.key] = c
			}
			s.evictions.Add(1)
		}
		victim.mu.Unlock()
		if c != nil {
			if s.spill.put(c, &s.gone) {
				s.spilled.Add(1)
			}
			victim.mu.Lock()
			if victim.evicting[c.key] == c {
				delete(victim.evicting, c.key)
			}
			victim.mu.Unlock()
			c.evicted.Store(true)
			c.unref()
		}
	}
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
