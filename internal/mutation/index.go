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

// Remapper is the interface an index implements to follow a table
// compaction without a rebuild: Remap returns a copy whose id i is this
// index's id kept[i], and whose ids kept does not name are gone. The
// receiver is left as it was, for the queries that still search it.
type Remapper interface {
	Remap(kept []int) vindex.MutableIndex
}

// IndexState pairs a table's mutable vector index with its maintenance
// policy: track the deleted fraction, and when it crosses the configured
// threshold, re-cluster in the background so searches keep their recall
// without ever rebuilding from scratch.
type IndexState struct {
	// cur is the live index and the row lineage its ids number; Add runs
	// inside the mutation path (before version publish), searches run
	// concurrently from queries.
	cur atomic.Pointer[covered]

	mu         sync.Mutex // serializes re-cluster scheduling
	inFlight   bool
	wg         sync.WaitGroup
	reclusters atomic.Int64
	lastErr    atomic.Pointer[error]
}

// covered is an index with the row lineage (relational.Table.Incarnation)
// whose physical row ids it numbers.
type covered struct {
	idx     vindex.MutableIndex
	lineage uint64
}

// NewIndexState wraps a mutable index over the rows of the given lineage.
func NewIndexState(idx vindex.MutableIndex, lineage uint64) *IndexState {
	s := &IndexState{}
	s.cur.Store(&covered{idx, lineage})
	return s
}

// Index is the live index.
func (s *IndexState) Index() vindex.MutableIndex { return s.cur.Load().idx }

// For is the index to search for version v: the live one when it numbers
// v's lineage and covers every row of v, else nil (a query pinned to a
// version the index moved past scans instead).
func (s *IndexState) For(v *Version) vindex.Index {
	c := s.cur.Load()
	if c.lineage != v.Table.Incarnation() || c.idx.Len() < v.Table.NumRows() {
		return nil
	}
	return c.idx
}

// Remap makes the live index follow v's compaction (Version.Kept), and
// reports whether the index could (it implements Remapper). Queries that
// hold the previous index keep searching it unchanged. Called under the
// table's writer lock, before v publishes.
func (s *IndexState) Remap(v *Version) bool {
	rm, ok := s.Index().(Remapper)
	if !ok {
		return false
	}
	s.cur.Store(&covered{rm.Remap(v.Kept), v.Table.Incarnation()})
	return true
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
	rc, ok := s.Index().(Reclusterer)
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
