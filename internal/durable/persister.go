package durable

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ejoin/internal/embstore"
)

// Persister is the write-behind bridge from an embstore.Store to a Log:
// the store's insert hook enqueues each freshly computed embedding, and a
// background writer appends them to the segment log. Embedding lookups
// never wait on disk; durability lags the cache by at most the queue
// depth plus the log's sync window.
type Persister struct {
	log *Log

	mu     sync.RWMutex // guards closed vs. concurrent enqueues
	closed bool
	ch     chan persistOp

	wg       sync.WaitGroup
	enqueued atomic.Int64
	written  atomic.Int64
	errs     atomic.Int64
	lastErr  atomic.Pointer[error]
}

// persistOp is one queue element: a record, or a flush barrier.
type persistOp struct {
	rec   Record
	flush chan struct{} // non-nil marks a barrier; closed when reached
}

// PersisterStats snapshots a persister.
type PersisterStats struct {
	// Enqueued counts records accepted from the store hook.
	Enqueued int64 `json:"enqueued"`
	// Written counts records appended to the log.
	Written int64 `json:"written"`
	// Errors counts failed appends (the record is lost from the log but
	// still served from memory; the next restart recomputes it).
	Errors int64 `json:"errors"`
}

// persistQueue is the write-behind queue depth: how many records the
// store may run ahead of the log before enqueue blocks.
const persistQueue = 4096

// NewPersister starts a persister over log. Call Attach to connect a
// store, Close to stop.
func NewPersister(log *Log) *Persister {
	p := &Persister{log: log, ch: make(chan persistOp, persistQueue)}
	p.wg.Add(1)
	go p.run()
	return p
}

// Attach installs the persister as store's insert observer: every fresh
// model-computed embedding is persisted write-behind. Detach with
// store.SetOnInsert(nil) or by closing the persister before the store.
func (p *Persister) Attach(store *embstore.Store) {
	store.SetOnInsert(func(fp, input string, vec []float32) {
		p.enqueue(Record{Fingerprint: fp, Input: input, Vec: vec})
	})
}

// enqueue hands one record to the writer, blocking when the queue is
// full: embedding computation outpacing disk is backpressured rather
// than silently dropped, keeping the log complete.
func (p *Persister) enqueue(rec Record) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return
	}
	p.enqueued.Add(1)
	p.ch <- persistOp{rec: rec}
}

// run is the background writer.
func (p *Persister) run() {
	defer p.wg.Done()
	for op := range p.ch {
		if op.flush != nil {
			if err := p.log.Sync(); err != nil {
				p.fail(err)
			}
			close(op.flush)
			continue
		}
		if err := p.log.Append(op.rec); err != nil {
			p.fail(err)
		} else {
			p.written.Add(1)
		}
	}
}

func (p *Persister) fail(err error) {
	p.errs.Add(1)
	p.lastErr.Store(&err)
}

// Flush blocks until every record enqueued before the call is appended
// and fsynced.
func (p *Persister) Flush() error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return p.Err()
	}
	done := make(chan struct{})
	p.ch <- persistOp{flush: done}
	p.mu.RUnlock()
	<-done
	return p.Err()
}

// Err returns the most recent append/sync failure, if any.
func (p *Persister) Err() error {
	if e := p.lastErr.Load(); e != nil {
		return *e
	}
	return nil
}

// Stats snapshots the persister's counters.
func (p *Persister) Stats() PersisterStats {
	return PersisterStats{
		Enqueued: p.enqueued.Load(),
		Written:  p.written.Load(),
		Errors:   p.errs.Load(),
	}
}

// Close drains the queue, fsyncs the log, and stops the writer.
// Idempotent. The caller should detach the store hook first (attached
// hooks enqueue into a closed persister harmlessly: the record is simply
// not persisted).
func (p *Persister) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return p.Err()
	}
	p.closed = true
	close(p.ch)
	p.mu.Unlock()
	p.wg.Wait()
	if err := p.log.Sync(); err != nil {
		p.fail(err)
	}
	if err := p.Err(); err != nil {
		return fmt.Errorf("durable: persister: %w", err)
	}
	return nil
}

// LoadStore replays a log into store via Put (no model calls, no hook
// fires), returning the number of entries loaded. Call before Attach, so
// replayed entries are not re-persisted.
func LoadStore(dir string, cfg LogConfig, store *embstore.Store) (*Log, int64, error) {
	var loaded int64
	log, err := OpenLog(dir, cfg, func(rec Record) error {
		store.Put(rec.Fingerprint, rec.Input, rec.Vec)
		loaded++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return log, loaded, nil
}
