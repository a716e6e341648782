package embstore

// Column chunks: a table's embedded text column kept resident as blocks of
// ChunkRows consecutive physical rows (the paper's Figure 5 "Option 1",
// embeddings as a column, for a text join column). A scan reads a block of
// vectors with one lookup per chunk instead of hashing, locking and copying
// per row. Chunks are ordinary store entries: the LRU, the byte budget and
// single flight cover them; an evicted chunk goes to the spill tier
// (spill.go), which a miss reads before it calls the model.

import (
	"container/list"
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"ejoin/internal/mat"
	"ejoin/internal/model"
)

// ChunkRows is how many consecutive physical rows one column chunk holds:
// chunk i covers rows [i*ChunkRows, (i+1)*ChunkRows).
const ChunkRows = 256

// ChunkKey names one chunk of a table's embedded text column. Physical
// rows of one row lineage (Incarnation) are append-only — a compaction
// starts a new lineage — so a chunk serves every table version that can
// see its rows.
type ChunkKey struct {
	Fingerprint string
	Incarnation uint64
	Column      string
	Index       int
}

// RowMask marks rows of one chunk, by offset within it.
type RowMask [ChunkRows / 64]uint64

// Set marks row i.
func (m *RowMask) Set(i int) { m[i>>6] |= 1 << uint(i&63) }

// Has reports whether row i is marked.
func (m *RowMask) Has(i int) bool { return m[i>>6]>>uint(i&63)&1 != 0 }

// Count is the number of marked rows.
func (m *RowMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Covers reports whether m marks every row need marks.
func (m *RowMask) Covers(need *RowMask) bool {
	for w := range need {
		if need[w]&^m[w] != 0 {
			return false
		}
	}
	return true
}

// rank is the number of marked rows below row i.
func (m *RowMask) rank(i int) int {
	w := i >> 6
	n := bits.OnesCount64(m[w] & (1<<uint(i&63) - 1))
	for _, x := range m[:w] {
		n += bits.OnesCount64(x)
	}
	return n
}

// first is the lowest marked row, or ChunkRows.
func (m *RowMask) first() int {
	for w, x := range m {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return ChunkRows
}

// last is the highest marked row, or -1.
func (m *RowMask) last() int {
	for w := len(m) - 1; w >= 0; w-- {
		if m[w] != 0 {
			return w*64 + 63 - bits.LeadingZeros64(m[w])
		}
	}
	return -1
}

// PrefixMask marks rows [0, n).
func PrefixMask(n int) RowMask {
	var m RowMask
	for w := range m {
		switch {
		case n >= (w+1)*64:
			m[w] = ^uint64(0)
		case n > w*64:
			m[w] = 1<<uint(n-w*64) - 1
		}
	}
	return m
}

// SelectionMask marks the rows of the ascending selection sel that fall in
// chunk index ci, by offset within the chunk.
func SelectionMask(sel []int, ci int) RowMask {
	var m RowMask
	lo := ci * ChunkRows
	for i := sort.SearchInts(sel, lo); i < len(sel) && sel[i] < lo+ChunkRows; i++ {
		m.Set(sel[i] - lo)
	}
	return m
}

// Chunk is one resident column chunk: the vectors of the rows in filled,
// packed in row order, so a chunk holds no space for rows it lacks. It is
// immutable once published (growing or shedding publishes a copy) and
// read-only to its readers.
//
// A chunk also owns the forms the scan kernels read its vectors in
// (mat.Forms: packed panels, suffix factors, int8 codes with their
// scales and norms), each derived from the vectors the first time a scan
// reads it, so a warm join reads them instead of deriving them per query.
// They belong to the vectors: a chunk that grows, sheds rows, moves to a
// new lineage or is read back from the spill file is a new chunk with
// none built, and an evicted chunk's go with its storage. They are not
// charged to the store's byte budget.
type Chunk struct {
	key    ChunkKey
	vecs   *mat.Matrix
	forms  *mat.Forms
	filled RowMask
	// refs counts the chunk's holders: the store while the chunk is
	// resident, a builder reading it, and each caller Store.Chunk or
	// PeekChunk handed it to, until that caller's Release. When the store
	// evicted the chunk, the holder that lets go last recycles the
	// vectors' storage (chunkBufs) for the chunks read back in its place.
	refs    atomic.Int32
	evicted atomic.Bool
}

// Release gives up the hold Store.Chunk or PeekChunk handed out with the
// chunk. Call it once no row or view of the chunk is in use any more: its
// storage may then be reused. A chunk never released is simply garbage
// collected.
func (c *Chunk) Release() { c.unref() }

func (c *Chunk) unref() {
	if c.refs.Add(-1) == 0 && c.evicted.Load() {
		b := c.vecs.Data[:0]
		chunkBufs.Put(&b)
		c.forms = nil
	}
}

// setVecs makes m the chunk's vectors, with no forms built yet.
func (c *Chunk) setVecs(m *mat.Matrix) {
	c.vecs, c.forms = m, mat.NewForms(m)
}

// Forms are the scan kernels' forms of the chunk's vectors: row r of
// their matrix is the r-th row the chunk holds (Span).
func (c *Chunk) Forms() *mat.Forms { return c.forms }

// Span returns the part of the chunk's forms that a scan of the rows in
// need reads: from the 16-row group holding need's first row through its
// last, by rank among the rows the chunk holds. The chunk must hold every
// row of need, which must not be empty.
func (c *Chunk) Span(need *RowMask) mat.Part {
	lo := c.filled.rank(need.first()) &^ 15
	return mat.Part{Forms: c.forms, Lo: lo, Hi: c.filled.rank(need.last()) + 1}
}

// AppendRows appends to ids base plus the offset within the chunk of each
// row of its forms' matrix from lo to hi (a Span's Lo and Hi).
func (c *Chunk) AppendRows(ids []int, base, lo, hi int) []int {
	for i, r := 0, 0; r < hi; i++ {
		if c.filled.Has(i) {
			if r >= lo {
				ids = append(ids, base+i)
			}
			r++
		}
	}
	return ids
}

// chunkBufs recycles the vectors of evicted chunks no one holds any more
// into the chunks read back from the spill file, so a column cycling
// through the spill tier does not allocate a chunk per read.
var chunkBufs sync.Pool // of *[]float32

// newVecs is a rows×dim matrix for a chunk's vectors, on recycled storage
// when there is some; its contents are undefined.
func newVecs(rows, dim int) *mat.Matrix {
	n := rows * dim
	if p, ok := chunkBufs.Get().(*[]float32); ok && cap(*p) >= n {
		return &mat.Matrix{RowsN: rows, ColsN: dim, Data: (*p)[:n]}
	}
	return mat.New(rows, dim)
}

// Row is row i's vector; the chunk must hold row i.
func (c *Chunk) Row(i int) []float32 { return c.vecs.Row(c.filled.rank(i)) }

// Holds reports the rows the chunk has a vector for.
func (c *Chunk) Holds() RowMask { return c.filled }

// chunkShard is the lock domain of a chunk key.
func (s *Store) chunkShard(k ChunkKey) *shard {
	h := fnv1a(fnv1a(fnvOffset, k.Fingerprint), k.Column)
	h = (h ^ k.Incarnation) * 1099511628211
	h = (h ^ uint64(k.Index)) * 1099511628211
	return s.shardAt(h)
}

// Chunk returns one column chunk holding every row in need: its row i is
// the unit-norm embedding of texts[i]. texts are the chunk's rows as the
// caller's table version has them (a version may not have all of a tail
// chunk's rows yet), and live marks the ones that version can see. The
// chunk may hold rows beyond need (other versions' too). The caller holds
// the chunk until it calls Release.
//
// A resident chunk covering need is a hit for every needed row. Otherwise
// the chunk is built — one builder per key at a time, others wait — from
// the resident one's vectors (or those of one being evicted, whose spill
// write is under way), or else its spill slot's, plus the missing
// rows embedded as EmbedAll would, and then adopts their per-text entries
// (see adopt). The new chunk keeps the old one's vectors only for rows
// live in the caller's version or past its end, so rows deleted since are
// shed as it grows, and so are the references to them.
func (s *Store) Chunk(ctx context.Context, m model.Model, key ChunkKey, texts []string, need, live RowMask, opts BatchOptions) (*Chunk, BatchStats, error) {
	var bs BatchStats
	if last := need.last(); last >= len(texts) {
		return nil, bs, fmt.Errorf("embstore: chunk %d needs row %d of %d", key.Index, last, len(texts))
	}
	sh := s.chunkShard(key)
	for {
		sh.mu.Lock()
		var old *Chunk
		if el, ok := sh.chunks[key]; ok {
			e := sh.touch(el, s.tick.Add(1))
			old = e.c
			old.refs.Add(1) // the caller's hold, or the builder's below
			if old.filled.Covers(&need) {
				sh.mu.Unlock()
				n := int64(need.Count())
				s.hits.Add(n)
				bs.Hits = n
				return old, bs, nil
			}
		} else if old = sh.evicting[key]; old != nil {
			// Evicted, its spill slot not yet written: the builder below
			// puts its vectors back (its evicted mark, if set after, only
			// lets the last holder recycle its storage).
			old.refs.Add(1) // the builder's hold
		}
		if fl, ok := sh.building[key]; ok {
			sh.mu.Unlock()
			if old != nil {
				old.unref()
			}
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, bs, fmt.Errorf("embstore: wait for chunk cancelled: %w", ctx.Err())
			}
			continue // the builder's chunk may not cover this caller's rows
		}
		fl := &flight{done: make(chan struct{})}
		sh.building[key] = fl
		sh.mu.Unlock()

		restored := false
		if old == nil {
			if old = s.spill.get(key, m.Dim()); old != nil {
				old.refs.Add(1) // the builder's hold
				restored = true
			}
		}
		c, added, err := s.buildChunk(ctx, m, key, old, restored, texts, need, live, opts, &bs)
		var el *list.Element
		var prev *Chunk
		if err == nil {
			c.refs.Add(1) // the caller's hold, taken before the store's can go
		}
		sh.mu.Lock()
		delete(sh.building, key)
		// A dropped lineage's chunk is the caller's alone: DropLineage
		// marks the lineage before it frees the resident chunks, so either
		// it frees this one or this check sees the mark.
		if err == nil && !s.gone.has(key) {
			if pel, ok := sh.chunks[key]; ok {
				prev = s.dropLocked(sh, pel)
			}
			el = s.pushLocked(sh, &entry{c: c})
		}
		sh.mu.Unlock()
		close(fl.done)
		if prev != nil {
			prev.unref()
		}
		if old != nil {
			old.unref()
		}
		if err != nil {
			return nil, bs, err
		}
		if el == nil {
			return c, bs, nil
		}
		s.trim(el)
		s.adopt(key, texts, added)
		if old != nil {
			var shed RowMask
			for w := range shed {
				shed[w] = old.filled[w] &^ c.filled[w]
			}
			s.forget(key, texts, shed)
		}
		return c, bs, nil
	}
}

// adopt makes the per-text entries of a chunk's newly filled rows
// references to them: a cached vector leaves the store (it is not an
// eviction), and a text with no entry gets one, so a lookup by text —
// another table's chunk holding the same text, a reboot's loaded entries
// — finds the one copy in the chunk. A text already referring to another
// chunk keeps that reference. The references share one copy of the key,
// never the chunk itself, so they do not keep a dropped chunk alive.
func (s *Store) adopt(ck ChunkKey, texts []string, rows []int) {
	at := &ck
	for _, i := range rows {
		k := key(at.Fingerprint, texts[i])
		sh := s.shardFor(k)
		var el *list.Element
		sh.mu.Lock()
		if cur, ok := sh.entries[k]; !ok {
			el = s.pushLocked(sh, &entry{key: k, at: at, row: int32(i)})
			sh.entries[k] = el
		} else if e := cur.Value.(*entry); e.at == nil {
			s.account(sh, e, -1)
			e.vec, e.at, e.row = nil, at, int32(i)
			s.account(sh, e, 1)
		}
		sh.mu.Unlock()
		s.trim(el)
	}
}

// buildChunk assembles the chunk Chunk publishes: old's vectors for the
// rows still live in the caller's version (or past its end), plus the
// needed rows old lacks, which it also returns. The needed rows old holds
// are hits, or restored rows when old was read back from the spill file;
// an old chunk that is already the result is returned as is.
func (s *Store) buildChunk(ctx context.Context, m model.Model, key ChunkKey, old *Chunk, restored bool, texts []string, need, live RowMask, opts BatchOptions, bs *BatchStats) (*Chunk, []int, error) {
	c := &Chunk{key: key, filled: need}
	if old != nil {
		keep := live
		for i := len(texts); i < ChunkRows; i++ {
			keep.Set(i)
		}
		var held int64
		for w := range c.filled {
			held += int64(bits.OnesCount64(need[w] & old.filled[w]))
			c.filled[w] |= old.filled[w] & keep[w]
		}
		if restored {
			bs.Restored += held
			s.restored.Add(held)
		} else {
			bs.Hits += held
			s.hits.Add(held)
		}
		if c.filled == old.filled {
			return old, nil, nil
		}
	}
	c.setVecs(mat.New(c.filled.Count(), m.Dim()))
	var missing []int
	for i := 0; i <= c.filled.last(); i++ {
		switch {
		case !c.filled.Has(i):
		case old != nil && old.filled.Has(i):
			copy(c.Row(i), old.Row(i))
		default:
			missing = append(missing, i)
		}
	}
	inputs := make([]string, len(missing))
	for j, i := range missing {
		inputs[j] = texts[i]
	}
	got, err := s.embedInto(ctx, m, inputs, func(j int) []float32 { return c.Row(missing[j]) }, opts, true)
	bs.Hits += got.Hits
	bs.Misses += got.Misses
	bs.Merged += got.Merged
	bs.ModelCalls += got.ModelCalls
	if err != nil {
		return nil, nil, err
	}
	return c, missing, nil
}

// Shed drops a resident chunk's vectors of rows outside live — its owner's
// newest live rows, which no later version can revive — once they are the
// majority of what it holds, so a chunk under churn costs its surviving
// rows, not every row it ever served; the references to those rows go
// too. texts are the chunk's rows. Readers keep the copy they hold.
func (s *Store) Shed(key ChunkKey, live RowMask, texts []string) {
	sh := s.chunkShard(key)
	sh.mu.Lock()
	el, ok := sh.chunks[key]
	if !ok {
		sh.mu.Unlock()
		return
	}
	old := el.Value.(*entry).c
	c := &Chunk{key: key}
	var shed RowMask
	for w := range c.filled {
		c.filled[w] = old.filled[w] & live[w]
		shed[w] = old.filled[w] &^ live[w]
	}
	if 2*c.filled.Count() >= old.filled.Count() {
		sh.mu.Unlock()
		return
	}
	c.setVecs(mat.New(c.filled.Count(), old.vecs.Cols()))
	for i := 0; i <= c.filled.last(); i++ {
		if c.filled.Has(i) {
			copy(c.Row(i), old.Row(i))
		}
	}
	s.dropLocked(sh, el)
	s.pushLocked(sh, &entry{c: c})
	sh.mu.Unlock()
	old.unref()
	s.forget(key, texts, shed)
}

// DropChunk releases a chunk its owner knows no reader needs any more
// (every row it holds was deleted), resident or spilled, and the
// references to its rows; texts are the chunk's rows. It is not an
// eviction.
func (s *Store) DropChunk(key ChunkKey, texts []string) {
	s.spill.drop(key)
	sh := s.chunkShard(key)
	sh.mu.Lock()
	var c *Chunk
	if el, ok := sh.chunks[key]; ok {
		c = s.dropLocked(sh, el)
	}
	sh.mu.Unlock()
	if c != nil {
		c.unref()
		s.forget(key, texts, c.filled)
	}
}

// forget removes the per-text references to the given rows of chunk ck
// (texts are the chunk's rows); a text referring elsewhere keeps its
// reference.
func (s *Store) forget(ck ChunkKey, texts []string, rows RowMask) {
	for i := 0; i <= rows.last(); i++ {
		if !rows.Has(i) || i >= len(texts) {
			continue
		}
		k := key(ck.Fingerprint, texts[i])
		sh := s.shardFor(k)
		sh.mu.Lock()
		if el, ok := sh.entries[k]; ok {
			if e := el.Value.(*entry); e.at != nil && *e.at == ck && int(e.row) == i {
				s.dropLocked(sh, el)
			}
		}
		sh.mu.Unlock()
	}
}

// PeekChunk returns a resident chunk without promoting it or touching
// statistics. The caller holds the chunk until it calls Release.
func (s *Store) PeekChunk(key ChunkKey) (*Chunk, bool) {
	sh := s.chunkShard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.chunks[key]; ok {
		c := el.Value.(*entry).c
		c.refs.Add(1)
		return c, true
	}
	return nil, false
}

// StoredChunk returns key's chunk from wherever the store keeps it —
// resident, evicted with its spill write still pending, or in its spill
// slot — without promoting it, touching statistics or calling the model:
// the source Carry and a durable log's compaction read a lineage's
// vectors from. The caller holds the chunk until it calls Release.
func (s *Store) StoredChunk(key ChunkKey, dim int) (*Chunk, bool) {
	sh := s.chunkShard(key)
	sh.mu.Lock()
	c := sh.evicting[key]
	if el, ok := sh.chunks[key]; ok {
		c = el.Value.(*entry).c
	}
	if c != nil {
		c.refs.Add(1)
	}
	sh.mu.Unlock()
	if c == nil {
		if c = s.spill.get(key, dim); c == nil {
			return nil, false
		}
		c.refs.Add(1)
	}
	return c, true
}

// Resident counts the rows of a column held by resident chunks or their
// spill slots, which a scan reads without the model: rows is the table
// version's physical row count, visible its live rows ascending (nil: all
// rows), key.Index is ignored. It only peeks — no promotion, no
// statistics, no I/O — so a planner can price E_µ without disturbing the
// cache.
func (s *Store) Resident(key ChunkKey, rows int, visible []int) int {
	n := 0
	for key.Index = 0; key.Index*ChunkRows < rows; key.Index++ {
		sh := s.chunkShard(key)
		sh.mu.Lock()
		el, ok := sh.chunks[key]
		var filled RowMask
		if ok {
			filled = el.Value.(*entry).c.filled
		}
		sh.mu.Unlock()
		if !ok {
			if filled, ok = s.spill.holds(key); !ok {
				continue
			}
		}
		want := PrefixMask(rows - key.Index*ChunkRows)
		if visible != nil {
			want = SelectionMask(visible, key.Index)
		}
		for w := range want {
			n += bits.OnesCount64(want[w] & filled[w])
		}
	}
	return n
}
