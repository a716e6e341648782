package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ejoin/internal/embstore"
	"ejoin/internal/mutation"
)

// embWriter logs the embeddings the store computes into the mutation WAL,
// write-behind: the store's insert hook enqueues each fresh vector and a
// background goroutine appends it as an embedding record, so a lookup
// never waits on disk. The log lags the store by at most the queue depth
// plus the WAL's fsync window for embedding records.
type embWriter struct {
	wal *mutation.WAL

	mu     sync.RWMutex // guards closed against concurrent enqueues
	closed bool
	ch     chan embOp
	wg     sync.WaitGroup

	enqueued, written, errs atomic.Int64
	lastErr                 atomic.Pointer[error]
}

// embOp is one queue element: an embedding, or a flush barrier.
type embOp struct {
	emb   mutation.Embedding
	flush chan struct{} // non-nil marks a barrier; closed when reached
}

// PersisterStats snapshots the embedding writer.
type PersisterStats struct {
	// Enqueued counts embeddings accepted from the store's insert hook.
	Enqueued int64 `json:"enqueued"`
	// Written counts embedding records appended to the WAL.
	Written int64 `json:"written"`
	// Errors counts failed appends (the vector is still served from
	// memory; the next process recomputes it).
	Errors int64 `json:"errors"`
}

// embQueue is how many embeddings the store may run ahead of the WAL
// before its insert hook blocks: backpressure, never a silent drop.
const embQueue = 4096

// newEmbWriter starts a writer over wal and installs it as store's insert
// observer. Close it before closing the WAL.
func newEmbWriter(wal *mutation.WAL, store *embstore.Store) *embWriter {
	w := &embWriter{wal: wal, ch: make(chan embOp, embQueue)}
	w.wg.Add(1)
	go w.run()
	store.SetOnInsert(func(fp, input string, vec []float32) {
		w.mu.RLock()
		defer w.mu.RUnlock()
		if !w.closed {
			w.enqueued.Add(1)
			w.ch <- embOp{emb: mutation.Embedding{Fingerprint: fp, Input: input, Vec: vec}}
		}
	})
	return w
}

// syncEvery is how many embedding records the writer appends between
// fsyncs. They are write-behind copies of vectors the store already
// serves, so losing some to a machine crash costs model calls, never
// correctness; every mutation's fsync covers them too.
const syncEvery = 256

func (w *embWriter) run() {
	defer w.wg.Done()
	unsynced := 0
	for op := range w.ch {
		if op.flush == nil {
			if err := w.wal.Append(mutation.Record{Kind: mutation.KindEmbedding, Emb: op.emb}); err != nil {
				w.note(err)
			} else {
				w.written.Add(1)
				unsynced++
			}
		}
		if op.flush != nil || unsynced == syncEvery {
			w.note(w.wal.Sync())
			unsynced = 0
		}
		if op.flush != nil {
			close(op.flush)
		}
	}
}

func (w *embWriter) note(err error) {
	if err != nil {
		w.errs.Add(1)
		w.lastErr.Store(&err)
	}
}

// Flush blocks until every embedding enqueued before the call is appended
// and fsynced, and returns the writer's last failure, if any.
func (w *embWriter) Flush() error {
	w.mu.RLock()
	if !w.closed {
		done := make(chan struct{})
		w.ch <- embOp{flush: done}
		w.mu.RUnlock()
		<-done
	} else {
		w.mu.RUnlock()
	}
	if e := w.lastErr.Load(); e != nil {
		return fmt.Errorf("service: embedding log: %w", *e)
	}
	return nil
}

// Close drains the queue, fsyncs, and stops the writer; an insert after it
// is not logged. Idempotent.
func (w *embWriter) Close() error {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
	w.wg.Wait()
	w.note(w.wal.Sync())
	return w.Flush()
}

// Stats snapshots the writer's counters.
func (w *embWriter) Stats() PersisterStats {
	return PersisterStats{Enqueued: w.enqueued.Load(), Written: w.written.Load(), Errors: w.errs.Load()}
}
