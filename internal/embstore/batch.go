package embstore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

// BatchStats reports what one EmbedAll call did, for per-query accounting
// (the executor's Stats.ModelCalls must reflect actual model work, not
// input cardinality, once a cache sits in front of the model).
type BatchStats struct {
	// Hits is the number of requested rows served from cache.
	Hits int64
	// Misses is the number of distinct new inputs this call embedded.
	Misses int64
	// Restored is the number of requested rows read back from the spill
	// file instead of the model (column chunks only).
	Restored int64
	// Merged is the number of rows that reused another row's or another
	// query's in-flight model call.
	Merged int64
	// ModelCalls is the number of Model.Embed invocations made.
	ModelCalls int64
}

// BatchOptions tunes the chunked parallel scheduler that embeds misses.
type BatchOptions struct {
	// Threads caps worker parallelism; <=0 uses GOMAXPROCS.
	Threads int
	// ChunkSize is inputs per scheduler task; <=0 uses 64.
	ChunkSize int
}

// embedChunks runs the shared scheduler: inputs are split into chunks,
// workers claim chunks via an atomic cursor (so skewed per-input model
// latency load-balances instead of stalling a static partition), and the
// result does not depend on the thread count. emit is invoked once per
// input with the model's raw (not yet normalized) output. emit is called
// concurrently but never twice for the same index. The first error stops
// the scan; remaining workers drain quickly via the shared error flag.
func embedChunks(ctx context.Context, m model.Model, inputs []string, opts BatchOptions, emit func(i int, raw []float32)) error {
	n := len(inputs)
	if n == 0 {
		return nil
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = min(threads, n)
	size := opts.ChunkSize
	if size <= 0 {
		size = 64
	}
	// The configured chunk size is an upper bound: small batches shrink it
	// so every worker gets several chunks (load balance beats batching
	// when there is little work to batch).
	chunk := max(min(size, (n+threads*4-1)/(threads*4)), 1)
	if threads == 1 {
		var q chunkQueue
		return q.drain(ctx, m, inputs, chunk, emit)
	}
	q := new(chunkQueue)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := range errs {
		go func() {
			defer wg.Done()
			errs[w] = q.drain(ctx, m, inputs, chunk, emit)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkQueue hands out chunks of the inputs to embedChunks' workers and
// carries the flag that stops them all after the first error.
type chunkQueue struct {
	cursor atomic.Int64
	failed atomic.Bool
}

// drain embeds the inputs of every chunk it claims until none is left or
// a worker has failed; the first error it meets marks the queue failed.
func (q *chunkQueue) drain(ctx context.Context, m model.Model, inputs []string, chunk int, emit func(i int, raw []float32)) error {
	n, dim := len(inputs), m.Dim()
	for !q.failed.Load() {
		lo := int(q.cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			return nil
		}
		for i := lo; i < min(lo+chunk, n); i++ {
			err := ctx.Err()
			var raw []float32
			if err != nil {
				err = fmt.Errorf("embstore: embed cancelled at row %d: %w", i, err)
			} else if raw, err = m.Embed(inputs[i]); err != nil {
				err = fmt.Errorf("embstore: embedding row %d: %w", i, err)
			} else if len(raw) != dim {
				err = fmt.Errorf("embstore: model returned dim %d, declared %d", len(raw), dim)
			}
			if err != nil {
				q.failed.Store(true)
				return err
			}
			emit(i, raw)
		}
	}
	return nil
}

// missGroup collects every output row that needs one distinct key, plus
// the flight that will deliver it.
type missGroup struct {
	input string
	key   string
	sh    *shard
	fl    *flight
	rows  []int
	done  bool // owned flights: published by this call
}

// EmbedAll is the store-backed embedding operator E_µ over a column: rows
// already cached are copied out, remaining distinct inputs are coalesced
// and embedded by the chunked parallel scheduler, and inputs another
// query is concurrently embedding are awaited rather than recomputed.
// The result is identical to sequential embedding; the second
// run over the same corpus performs zero model calls. Zero fields of
// opts fall back to the store's configuration, so callers with their own
// thread budget (the executor's Options.Threads) keep control of miss
// parallelism.
func (s *Store) EmbedAll(ctx context.Context, m model.Model, inputs []string, opts BatchOptions) (*mat.Matrix, BatchStats, error) {
	out := mat.New(len(inputs), m.Dim())
	bs, err := s.embedInto(ctx, m, inputs, out.Row, opts, false)
	if err != nil {
		return nil, bs, err
	}
	return out, bs, nil
}

// embedInto is EmbedAll writing row i into dst(i). With adopt set (a
// column chunk being built) a model-computed vector is handed to the
// insert observer but not cached per text: the chunk will hold it.
func (s *Store) embedInto(ctx context.Context, m model.Model, inputs []string, dst func(i int) []float32, opts BatchOptions, adopt bool) (BatchStats, error) {
	var bs BatchStats
	fp := Fingerprint(m)

	var owned []*missGroup   // flights this call must publish
	var foreign []*missGroup // flights owned by concurrent callers
	groups := make(map[string]*missGroup)

	// The warm path allocates nothing per row: the key is assembled in one
	// reused buffer (map lookups by string(kb) do not copy), and the
	// fingerprint prefix, shared by every key of the call, is hashed once.
	kb := append(append(make([]byte, 0, len(fp)+64), fp...), 0)
	prefix, prefixHash := len(kb), fnv1a(fnv1a(fnvOffset, fp), "\x00")
	now := s.tick.Add(1)
	for i, in := range inputs {
		kb = append(kb[:prefix], in...)
		if len(groups) > 0 {
			if g, ok := groups[string(kb)]; ok {
				// Duplicate within this batch: one model call serves them all.
				g.rows = append(g.rows, i)
				s.merged.Add(1)
				bs.Merged++
				continue
			}
		}
		sh := s.shardAt(fnv1a(prefixHash, in)) // == s.shardFor(key(fp, in))
		sh.mu.Lock()
		if el, ok := sh.entries[string(kb)]; ok {
			e := sh.touch(el, now)
			if e.at == nil {
				copy(dst(i), e.vec)
				sh.mu.Unlock()
				bs.Hits++
				continue
			}
			sh.mu.Unlock()
			if s.resolve(sh, string(kb), e, dst(i)) {
				bs.Hits++
				continue
			}
			sh.mu.Lock() // the reference was stale and is gone: a miss
		}
		k := string(kb)
		if fl, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			g := &missGroup{input: in, key: k, sh: sh, fl: fl, rows: []int{i}}
			groups[k] = g
			foreign = append(foreign, g)
			s.merged.Add(1)
			bs.Merged++
			continue
		}
		fl := &flight{done: make(chan struct{})}
		sh.inflight[k] = fl
		sh.mu.Unlock()
		g := &missGroup{input: in, key: k, sh: sh, fl: fl, rows: []int{i}}
		groups[k] = g
		owned = append(owned, g)
		s.misses.Add(1)
		bs.Misses++
	}
	s.hits.Add(bs.Hits)

	// Embed owned misses with the shared scheduler. Whatever happens, every
	// owned flight must be published, or waiters would block forever.
	var schedErr error
	if len(owned) > 0 {
		texts := make([]string, len(owned))
		for i, g := range owned {
			texts[i] = g.input
		}
		if opts.Threads <= 0 {
			opts.Threads = s.cfg.Threads
		}
		if opts.ChunkSize <= 0 {
			opts.ChunkSize = s.cfg.ChunkSize
		}
		var calls atomic.Int64
		schedErr = embedChunks(ctx, m, texts, opts, func(i int, raw []float32) {
			calls.Add(1)
			g := owned[i]
			// An adopted vector lives in its first row only; a cached one in
			// its own entry.
			v := dst(g.rows[0])
			if !adopt {
				v = make([]float32, len(raw))
			}
			vec.NormalizeInto(v, raw)
			for _, r := range g.rows {
				if r := dst(r); &r[0] != &v[0] {
					copy(r, v)
				}
			}
			// Published last: waiters read v, which must not change after.
			s.publish(g.sh, g.key, g.fl, v, nil, !adopt)
			g.done = true
		})
		s.modelCalls.Add(calls.Load())
		bs.ModelCalls = calls.Load()
		if schedErr != nil {
			for _, g := range owned {
				if !g.done {
					s.publish(g.sh, g.key, g.fl, nil, schedErr, false)
				}
			}
			return bs, schedErr
		}
	}

	// Collect results from concurrent callers' flights.
	for _, g := range foreign {
		v, err := awaitFlight(ctx, g.fl)
		if err != nil && ctx.Err() == nil && isCtxErr(err) {
			// The flight's owner was cancelled, not us: re-request the key
			// ourselves instead of inheriting the cancellation.
			v, err = s.Get(ctx, m, g.input)
		}
		if err != nil {
			return bs, fmt.Errorf("embstore: merged embed of %q failed: %w", truncate(g.input), err)
		}
		for _, r := range g.rows {
			copy(dst(r), v)
		}
	}
	return bs, nil
}
