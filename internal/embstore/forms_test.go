package embstore

import (
	"context"
	"fmt"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
)

// scanForms runs a threshold scan and, where the host runs it, a
// candidate top-3 of the chunk's rows in need against themselves, so
// that they build the chunk's forms — every layout, on a host with the
// int8 kernels — and then checks that the forms equal a fresh build.
func scanForms(t *testing.T, c *Chunk, need RowMask) {
	t.Helper()
	p := c.Span(&need)
	side, err := mat.NewParts(c.vecs.Cols(), []mat.Part{p})
	if err != nil {
		t.Fatal(err)
	}
	n := side.Rows()
	for i := range n {
		if got, want := side.Row(i), c.vecs.Row(p.Lo+i); &got[0] != &want[0] {
			t.Fatalf("row %d of the chunk's forms is not the chunk's row", i)
		}
	}
	bound := make([]float32, n)
	for i := range bound {
		bound[i] = 0.5
	}
	opts := mat.GemmOptions{Threads: 1, Kernel: vec.KernelSIMD}
	none := func() mat.ScanVisitor { return func(int, int, float32) {} }
	ctx := context.Background()
	if _, err := mat.ScanAbove(ctx, side, side, bound, opts, none); err != nil {
		t.Fatal(err)
	}
	if mat.TopKCandidatesOn(n, n, c.vecs.Cols(), 3, opts) {
		if _, err := mat.TopKCandidates(ctx, side, side, 3, bound, nil, opts, none); err != nil {
			t.Fatal(err)
		}
	}
	if c.Forms().Bytes() == 0 {
		t.Fatal("the scans built no forms")
	}
	if err := c.Forms().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestChunkFormsFresh: a chunk's forms are those of its vectors after its
// rows fill in (a partly embedded chunk grows) and after it is evicted
// and read back from the spill file; the chunk it replaced keeps forms of
// its own vectors.
func TestChunkFormsFresh(t *testing.T) {
	m, err := model.NewHashEmbedder(40)
	if err != nil {
		t.Fatal(err)
	}
	texts := func(table int) []string {
		out := make([]string, ChunkRows)
		for i := range out {
			out[i] = fmt.Sprintf("table %d row %d", table, i%200)
		}
		return out
	}
	// A budget of about one chunk: a second column evicts the first.
	s := New(Config{MaxBytes: ChunkRows * 40 * 4 * 3 / 2})
	defer s.Close()
	ctx := context.Background()
	key := ChunkKey{Fingerprint: Fingerprint(m), Incarnation: 1, Column: "c"}
	all := PrefixMask(ChunkRows)
	part := PrefixMask(200)
	get := func(k ChunkKey, need RowMask) (*Chunk, BatchStats) {
		t.Helper()
		c, bs, err := s.Chunk(ctx, m, k, texts(int(k.Incarnation)), need, all, BatchOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		return c, bs
	}
	partly, _ := get(key, part)
	scanForms(t, partly, part)
	full, _ := get(key, all)
	if full == partly {
		t.Fatal("filling rows in did not publish a new chunk")
	}
	scanForms(t, full, all)
	if err := partly.Forms().Verify(); err != nil {
		t.Fatalf("the replaced chunk: %v", err)
	}
	partly.Release()
	full.Release()

	other := key
	other.Incarnation = 2
	c, _ := get(other, all)
	scanForms(t, c, all)
	c.Release()
	back, bs := get(key, all)
	if bs.Restored == 0 {
		t.Fatalf("stats %+v: the chunk was not read back from the spill file", bs)
	}
	if back == full {
		t.Fatal("the restored chunk is the evicted one")
	}
	if back.Forms().Bytes() != 0 {
		t.Fatal("a chunk read back from the spill file came with forms built")
	}
	scanForms(t, back, all)
	back.Release()
}
