package shard

// byteSemaphore mirrors the service package's admission ledger (which is
// unexported there): a context-aware weighted semaphore with FIFO
// waiters. The router admits a fan-out as one unit — the sum of its
// per-pair footprints — against this budget, so N scatter
// streams cannot overcommit memory the way N independently-admitted
// queries against N engines could.

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

type byteSemaphore struct {
	capacity int64

	mu      sync.Mutex
	cur     int64
	waiters list.List // of *byteWaiter, FIFO
}

type byteWaiter struct {
	n     int64
	ready chan struct{} // closed when the weight is granted
}

func newByteSemaphore(capacity int64) *byteSemaphore {
	return &byteSemaphore{capacity: capacity}
}

// Acquire blocks until n bytes of budget are available or ctx is done,
// reporting whether it had to wait. n larger than the whole capacity is
// an error (the caller clamps).
func (s *byteSemaphore) Acquire(ctx context.Context, n int64) (waited bool, err error) {
	if n < 0 {
		n = 0
	}
	if n > s.capacity {
		return false, fmt.Errorf("shard: admission weight %d exceeds capacity %d", n, s.capacity)
	}
	s.mu.Lock()
	if s.cur+n <= s.capacity && s.waiters.Len() == 0 {
		s.cur += n
		s.mu.Unlock()
		return false, nil
	}
	w := &byteWaiter{n: n, ready: make(chan struct{})}
	el := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return true, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.ready:
			// Granted while we were cancelling: give the weight back so
			// the accounting stays balanced (the caller sees the error
			// and will not Release).
			s.cur -= w.n
			s.notifyLocked()
		default:
			s.waiters.Remove(el)
			// The departed waiter may have been blocking the FIFO head:
			// smaller requests queued behind it could fit right now.
			s.notifyLocked()
		}
		s.mu.Unlock()
		return true, fmt.Errorf("shard: admission wait aborted: %w", ctx.Err())
	}
}

// Release returns n bytes of budget and wakes admissible waiters.
func (s *byteSemaphore) Release(n int64) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		s.cur = 0
	}
	s.notifyLocked()
	s.mu.Unlock()
}

// InUse is the currently admitted weight.
func (s *byteSemaphore) InUse() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// Waiting is the number of queued waiters.
func (s *byteSemaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// notifyLocked grants budget to waiters in FIFO order while it fits.
func (s *byteSemaphore) notifyLocked() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*byteWaiter)
		if s.cur+w.n > s.capacity {
			return
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.ready)
	}
}
