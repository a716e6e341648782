package mutation

import (
	"sync"
	"sync/atomic"

	"ejoin/internal/relational"
	"ejoin/internal/vindex"
)

// Reclusterer is the optional maintenance interface an index implements
// when tombstone churn degrades it structurally. IVF-Flat implements it
// (centroids drift from the live distribution); HNSW does not (its graph
// tolerates tombstone filtering), and IVF-PQ would need codebook
// retraining, which is a rebuild, not maintenance.
type Reclusterer interface {
	Recluster(live *relational.Bitmap) error
}

// IndexState pairs a table's mutable vector index with its maintenance
// policy: track the deleted fraction, and when it crosses the configured
// threshold, re-cluster in the background so searches keep their recall
// without ever rebuilding from scratch.
type IndexState struct {
	// Idx is the live index; Add runs inside the mutation path (before
	// version publish), searches run concurrently from queries.
	Idx vindex.MutableIndex

	mu         sync.Mutex // serializes re-cluster scheduling
	inFlight   bool
	wg         sync.WaitGroup
	reclusters atomic.Int64
	lastErr    atomic.Pointer[error]
}

// NewIndexState wraps a mutable index.
func NewIndexState(idx vindex.MutableIndex) *IndexState {
	return &IndexState{Idx: idx}
}

// Reclusters returns how many re-cluster passes have completed.
func (s *IndexState) Reclusters() int64 { return s.reclusters.Load() }

// MaybeRecluster schedules a background re-cluster when the version's
// deleted fraction is at or above threshold and the index supports it.
// At most one pass runs at a time; the version's live bitmap is captured
// at scheduling time (a pass over slightly-stale liveness is fine — the
// next mutation re-evaluates the trigger). Returns whether a pass was
// scheduled.
func (s *IndexState) MaybeRecluster(v *Version, threshold float64) bool {
	rc, ok := s.Idx.(Reclusterer)
	if !ok || threshold <= 0 || v.Table.NumRows() == 0 {
		return false
	}
	if float64(v.Dead)/float64(v.Table.NumRows()) < threshold {
		return false
	}
	s.mu.Lock()
	if s.inFlight {
		s.mu.Unlock()
		return false
	}
	s.inFlight = true
	s.wg.Add(1)
	s.mu.Unlock()

	live := v.Live // immutable snapshot; nil means all live
	go func() {
		defer s.wg.Done()
		err := rc.Recluster(live)
		if err != nil {
			s.lastErr.Store(&err)
		} else {
			s.reclusters.Add(1)
		}
		s.mu.Lock()
		s.inFlight = false
		s.mu.Unlock()
	}()
	return true
}

// Wait blocks until any in-flight background re-cluster finishes.
func (s *IndexState) Wait() { s.wg.Wait() }

// Err returns the most recent background re-cluster error, if any.
func (s *IndexState) Err() error {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}
