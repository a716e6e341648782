package exec

import (
	"context"
	"sync"
	"time"

	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// EmbeddedColumn names a text column whose embeddings a Scan projects from
// the store's column chunks (embstore.Store.Chunk): the one way a plan
// input gets a text column's embeddings. Store is required, and so is the
// scanned table's incarnation (relational.Table.Incarnation): the chunks
// live in the store, keyed by it.
type EmbeddedColumn struct {
	Store  *embstore.Store
	Model  model.Model
	Column string
	// Threads caps embedding parallelism when a chunk must be built.
	Threads int
}

// columnReader is one scan's view of an embedded column: the chunks it
// has fetched (held for the scan's lifetime), its E_µ accounting, and the
// buffer a sparse block is gathered into. A chunk is asked for the rows
// of the block at hand only, so a stream that stops early (a LIMIT) never
// embeds the rows it did not reach.
type columnReader struct {
	col     *EmbeddedColumn
	texts   relational.StringColumn
	key     embstore.ChunkKey
	visible relational.Selection // nil: every physical row is live
	nrows   int
	chunks  []fetched
	held    []*embstore.Chunk // every chunk the store handed out, until release
	buf     []float32
	st      OpStats
	batch   embstore.BatchStats
}

// fetched is a chunk as last returned by the store and the rows of it this
// scan has asked for.
type fetched struct {
	chunk *embstore.Chunk
	have  embstore.RowMask
}

func newColumnReader(c *EmbeddedColumn, t *relational.Table, visible relational.Selection) (*columnReader, error) {
	texts, err := t.Strings(c.Column)
	if err != nil {
		return nil, err
	}
	return &columnReader{
		col:     c,
		texts:   texts,
		key:     embstore.ChunkKey{Fingerprint: embstore.Fingerprint(c.Model), Incarnation: t.Incarnation(), Column: c.Column},
		visible: visible,
		nrows:   t.NumRows(),
		st:      OpStats{Name: "embed"},
	}, nil
}

// project returns the embeddings of one block's rows (ascending), and the
// global row id of each row of them. They are read in place, one part per
// chunk the block touches, with the chunk's forms (embstore.Chunk.Span).
// A part may hold rows outside the block, which keep leaves out (nil:
// none). A block that keeps fewer than 15/16 of its parts' rows — a
// predicate's selection, a churned table's tombstones — is gathered into
// the reader's buffer instead, which the next block reuses: a row scanned
// and left out costs a row of tiles against the whole other side, while
// a gathered row costs its copy and the forms the scan derives for it.
// (Walking runs that kept 3/4 of their rows made mixed_mutate's queries
// ~10 % slower than gathering them.)
func (c *columnReader) project(ctx context.Context, rows []int) (side mat.Side, ids []int, keep *relational.Bitmap, err error) {
	start := time.Now()
	defer func() {
		c.st.RowsIn += int64(len(rows))
		c.st.RowsOut += int64(len(rows))
		c.st.Batches++
		c.st.Elapsed += time.Since(start)
	}()
	// The chunk of each part, and its first row's id.
	type span struct {
		ch   *embstore.Chunk
		base int
	}
	chunks := rows[len(rows)-1]/embstore.ChunkRows - rows[0]/embstore.ChunkRows + 1
	parts, spans := make([]mat.Part, 0, chunks), make([]span, 0, chunks)
	n := 0
	for lo := 0; lo < len(rows); {
		ci := rows[lo] / embstore.ChunkRows
		base := ci * embstore.ChunkRows
		var need embstore.RowMask
		hi := lo
		for ; hi < len(rows) && rows[hi] < base+embstore.ChunkRows; hi++ {
			need.Set(rows[hi] - base)
		}
		ch, err := c.chunk(ctx, ci, need)
		if err != nil {
			return nil, nil, nil, err
		}
		p := ch.Span(&need)
		parts, spans = append(parts, p), append(spans, span{ch, base})
		n += p.Hi - p.Lo
		lo = hi
	}
	if 16*len(rows) < 15*n {
		dim := c.col.Model.Dim()
		m := &mat.Matrix{RowsN: len(rows), ColsN: dim, Data: c.buffer(len(rows) * dim)}
		for i, at := 0, 0; i < len(rows); i++ {
			for rows[i] >= spans[at].base+embstore.ChunkRows {
				at++
			}
			copy(m.Row(i), spans[at].ch.Row(rows[i]-spans[at].base))
		}
		return m, rows, nil, nil
	}
	if side, err = mat.NewParts(c.col.Model.Dim(), parts); err != nil {
		return nil, nil, nil, err
	}
	if n == len(rows) {
		return side, rows, nil, nil // the parts hold the block's rows alone
	}
	ids = make([]int, 0, n)
	for i, p := range parts {
		ids = spans[i].ch.AppendRows(ids, spans[i].base, p.Lo, p.Hi)
	}
	return side, ids, relational.BitmapFromSelection(n, keptRows(ids, rows)), nil
}

// keptRows is the positions in ids, ascending global row ids, of the rows
// of rows, ascending and a subset of ids.
func keptRows(ids, rows []int) relational.Selection {
	sel := make(relational.Selection, 0, len(rows))
	for at, id := range ids {
		if len(sel) < len(rows) && rows[len(sel)] == id {
			sel = append(sel, at)
		}
	}
	return sel
}

// chunk returns chunk ci holding at least the rows in need.
func (c *columnReader) chunk(ctx context.Context, ci int, need embstore.RowMask) (*embstore.Chunk, error) {
	if c.chunks == nil {
		c.chunks = make([]fetched, (c.nrows+embstore.ChunkRows-1)/embstore.ChunkRows)
	}
	f := &c.chunks[ci]
	if f.chunk != nil && f.have.Covers(&need) {
		return f.chunk, nil
	}
	lo := ci * embstore.ChunkRows
	hi := min(lo+embstore.ChunkRows, c.nrows)
	live := embstore.PrefixMask(hi - lo)
	if c.visible != nil {
		live = embstore.SelectionMask(c.visible, ci)
	}
	key := c.key
	key.Index = ci
	ch, bs, err := c.col.Store.Chunk(ctx, c.col.Model, key, c.texts[lo:hi], need, live,
		embstore.BatchOptions{Threads: c.col.Threads})
	c.batch.Hits += bs.Hits
	c.batch.Misses += bs.Misses
	c.batch.Restored += bs.Restored
	c.batch.Merged += bs.Merged
	c.batch.ModelCalls += bs.ModelCalls
	if err != nil {
		return nil, err
	}
	c.held = append(c.held, ch)
	if ch != f.chunk {
		f.have = embstore.RowMask{}
	}
	for w := range need {
		f.have[w] |= need[w]
	}
	f.chunk = ch
	return ch, nil
}

// gatherBufs recycles gather buffers across scans: a scan takes one for
// its first sparse block and hands it back with Release.
var gatherBufs sync.Pool // of *[]float32

// buffer is the reader's gather buffer, at least n long.
func (c *columnReader) buffer(n int) []float32 {
	if cap(c.buf) < n {
		if p, ok := gatherBufs.Get().(*[]float32); ok && cap(*p) >= n {
			c.buf = *p
		} else {
			c.buf = make([]float32, n)
		}
	}
	return c.buf[:n]
}

// release hands the gather buffer back for later scans and lets go of the
// chunks the scan read; a later block fetches its chunks again.
func (c *columnReader) release() {
	for _, ch := range c.held {
		ch.Release()
	}
	c.held, c.chunks = nil, nil
	if c.buf != nil {
		b := c.buf[:0]
		gatherBufs.Put(&b)
		c.buf = nil
	}
}
