package embstore

// Lineages: the chunks of one table's physical rows share a row lineage
// (ChunkKey.Incarnation). A lineage ends when its table leaves the catalog
// or compacts into a fresh one; DropLineage then frees its chunks for good,
// and Carry moves a compacted table's vectors into its new lineage without
// the model.

import (
	"container/list"
	"sync"

	"ejoin/internal/mat"
)

// lineage names the chunks of one table lineage under one model.
type lineage struct {
	fp  string
	inc uint64
}

// lineages is the set of lineages their owners dropped. Its lock is a
// leaf: it is taken under a shard's lock or the spill's, never around
// them.
type lineages struct {
	mu   sync.Mutex
	gone map[lineage]struct{}
}

func (l *lineages) add(fp string, inc uint64) {
	l.mu.Lock()
	if l.gone == nil {
		l.gone = make(map[lineage]struct{})
	}
	l.gone[lineage{fp, inc}] = struct{}{}
	l.mu.Unlock()
}

// has reports whether key's lineage was dropped.
func (l *lineages) has(key ChunkKey) bool {
	l.mu.Lock()
	_, ok := l.gone[lineage{key.Fingerprint, key.Incarnation}]
	l.mu.Unlock()
	return ok
}

// DropLineage frees every chunk of a table lineage that no new query can
// pin any more — its table was dropped, replaced or compacted — resident
// or spilled, and the references to their rows. columns maps each
// embedded text column to the lineage's physical rows. The store
// remembers the lineage: a chunk a reader still pinned to it builds
// afterwards is that reader's alone, never kept resident past its Release
// and never spilled.
func (s *Store) DropLineage(fp string, inc uint64, columns map[string][]string) {
	s.gone.add(fp, inc)
	key := ChunkKey{Fingerprint: fp, Incarnation: inc}
	for col, texts := range columns {
		key.Column = col
		for lo := 0; lo < len(texts); lo += ChunkRows {
			key.Index = lo / ChunkRows
			s.DropChunk(key, texts[lo:min(lo+ChunkRows, len(texts))])
		}
	}
}

// Carry fills the chunks of a compacted table's lineage from the lineage
// it was compacted from, with no model call. from names the old lineage's
// column (its Index is ignored) and to the new lineage; row i of the new
// lineage is row kept[i] (ascending) of the old and gets the vector the
// old chunk holding that row has, resident or spilled. Rows no old chunk
// holds stay unfilled, for a scan to embed on demand. texts are the new
// lineage's rows of the column: the per-text references to a carried row
// move with it, so DropLineage of the old lineage leaves them in place.
// Nothing may have built a chunk of the new lineage yet. It returns how
// many rows it carried.
func (s *Store) Carry(from ChunkKey, to uint64, dim int, kept []int, texts []string) int {
	var built []*Chunk
	var moved [][2]int // (old row, new row) per carried row
	src := make(map[int]*Chunk)
	old := func(ci int) *Chunk {
		c, ok := src[ci]
		if !ok {
			key := from
			key.Index = ci
			c, _ = s.StoredChunk(key, dim)
			src[ci] = c
		}
		return c
	}
	for lo := 0; lo < len(kept); lo += ChunkRows {
		hi := min(lo+ChunkRows, len(kept))
		c := &Chunk{key: ChunkKey{Fingerprint: from.Fingerprint, Incarnation: to, Column: from.Column, Index: lo / ChunkRows}}
		for i := lo; i < hi; i++ {
			if oc := old(kept[i] / ChunkRows); oc != nil && oc.filled.Has(kept[i]%ChunkRows) {
				c.filled.Set(i - lo)
			}
		}
		if c.filled.Count() == 0 {
			continue
		}
		c.setVecs(mat.New(c.filled.Count(), dim))
		for i := lo; i < hi; i++ {
			if c.filled.Has(i - lo) {
				copy(c.Row(i-lo), src[kept[i]/ChunkRows].Row(kept[i]%ChunkRows))
				moved = append(moved, [2]int{kept[i], i})
			}
		}
		built = append(built, c)
	}
	for _, c := range src {
		if c != nil {
			c.unref()
		}
	}
	for _, c := range built {
		sh := s.chunkShard(c.key)
		sh.mu.Lock()
		el := s.pushLocked(sh, &entry{c: c})
		sh.mu.Unlock()
		s.trim(el)
	}
	s.repoint(from, to, moved, texts)
	return len(moved)
}

// repoint makes the per-text references to each moved row (old row id,
// new row id) of lineage from.Incarnation refer to the new row of lineage
// to, and gives a text with no entry a reference, as adopt does. A moved
// reference is a new entry: a lookup may be resolving the old one outside
// the shard lock.
func (s *Store) repoint(from ChunkKey, to uint64, moved [][2]int, texts []string) {
	var at *ChunkKey
	for _, m := range moved {
		if at == nil || at.Index != m[1]/ChunkRows {
			at = &ChunkKey{Fingerprint: from.Fingerprint, Incarnation: to, Column: from.Column, Index: m[1] / ChunkRows}
		}
		k := key(from.Fingerprint, texts[m[1]])
		sh := s.shardFor(k)
		var el *list.Element
		sh.mu.Lock()
		cur, exists := sh.entries[k]
		if exists {
			if e := cur.Value.(*entry); e.at != nil && e.at.Incarnation == from.Incarnation &&
				e.at.Column == from.Column && e.at.Index*ChunkRows+int(e.row) == m[0] {
				s.dropLocked(sh, cur)
				exists = false
			}
		}
		if !exists {
			el = s.pushLocked(sh, &entry{key: k, at: at, row: int32(m[1] % ChunkRows)})
			sh.entries[k] = el
		}
		sh.mu.Unlock()
		s.trim(el)
	}
}
