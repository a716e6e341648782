package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/embstore"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// FuzzColumnBlocksMatchEmbedAll: every block a Scan projects from an
// embedded column — runs of the chunks it touches, read in place, over
// tombstones and predicates, at any block size, after earlier scans left
// chunks partly filled — holds, for each of its rows, exactly the vector
// of embedding the same text one by one (core.Embed, the sequential
// reference), bit for bit; and a threshold join and a top-k join of each
// block against the whole column, both read as chunks, equal the same
// joins over matrices gathered from the reference, match for match and
// bit for bit.
func FuzzColumnBlocksMatchEmbedAll(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(16), uint8(30), uint8(50), uint16(7))
	f.Add(int64(2), uint16(513), uint16(256), uint8(0), uint8(100), uint16(4096))
	f.Add(int64(3), uint16(1), uint16(1), uint8(90), uint8(10), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n, block uint16, deadPct, attrLT uint8, warmBlock uint16) {
		rows := int(n % 700)
		rng := rand.New(rand.NewSource(seed))
		words := make(relational.StringColumn, rows)
		attrs := make(relational.Int64Column, rows)
		for i := range words {
			words[i] = fmt.Sprintf("w%d", rng.Intn(rows/2+1)) // duplicates, within and across chunks
			attrs[i] = int64(rng.Intn(100))
		}
		tbl, err := relational.NewTable(
			relational.Schema{{Name: "word", Type: relational.String}, {Name: "attr", Type: relational.Int64}},
			[]relational.Column{words, attrs})
		if err != nil {
			t.Fatal(err)
		}
		tbl = tbl.WithIncarnation(uint64(seed) | 1)
		var visible relational.Selection
		if deadPct > 0 {
			visible = relational.Selection{}
			for i := 0; i < rows; i++ {
				if rng.Intn(100) >= int(deadPct%100) {
					visible = append(visible, i)
				}
			}
		}
		// 40 elements: the scans' checkpoints and int8 filter run.
		m, err := model.NewHashEmbedder(40)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Embed(context.Background(), m, words)
		if err != nil {
			t.Fatal(err)
		}
		store := embstore.New(embstore.Config{})
		col := &EmbeddedColumn{Store: store, Model: m, Column: "word", Threads: 1}
		pred := []relational.Pred{{Column: "attr", Op: relational.LT, Value: int64(attrLT)}}
		// A first scan with another block size and the opposite predicate
		// leaves some chunks holding only some rows.
		warm := &Scan{Table: tbl, Visible: visible, Embedded: col, BlockRows: int(warmBlock%600) + 1,
			Preds: []relational.Pred{{Column: "attr", Op: relational.GE, Value: int64(attrLT)}}}
		scanBlocks(t, warm, want, nil)
		build := &Scan{Table: tbl, Visible: visible, Embedded: col, BlockRows: max(rows, 1)}
		blk := scanBlocks(t, build, want, nil)
		scanBlocks(t, &Scan{Table: tbl, Visible: visible, Preds: pred, Embedded: col, BlockRows: int(block%600) + 1}, want, blk)
		scanBlocks(t, &Scan{Table: tbl, Visible: visible, Embedded: col, BlockRows: int(block%600) + 1}, want, blk)
		build.Release()
	})
}

// joinsMatchGathered runs a threshold join and a top-2 join of probe
// block b against the build block, both as the probes run them (column
// chunks in place, rows outside the blocks filtered out), and again over
// matrices gathered from want, and fails the test unless they agree
// match for match and bit for bit.
func joinsMatchGathered(t *testing.T, b, build *Batch, want *mat.Matrix) {
	t.Helper()
	ctx := context.Background()
	gather := func(rows []int) *mat.Matrix {
		m := mat.New(len(rows), want.Cols())
		for i, r := range rows {
			copy(m.Row(i), want.Row(r))
		}
		return m
	}
	bs := buildSide{Build: build.Emb, BuildRows: build.EmbRows, BuildKeep: build.EmbKeep}
	left, right := gather(b.Rows), gather(build.Rows)
	for _, kernel := range []vec.Kernel{vec.KernelScalar, vec.KernelSIMD} {
		opts := core.Options{Kernel: kernel, Threads: 2}
		for _, run := range []func(l, r mat.Side, o core.Options) (*core.Result, error){
			func(l, r mat.Side, o core.Options) (*core.Result, error) { return core.TensorJoin(ctx, l, r, 0.3, o) },
			func(l, r mat.Side, o core.Options) (*core.Result, error) { return core.TensorTopK(ctx, l, r, 2, o) },
		} {
			got, err := run(b.Emb, build.Emb, bs.opts(opts, b))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := run(left, right, opts)
			if err != nil {
				t.Fatal(err)
			}
			gm := remap(b.EmbRows, build.EmbRows, got.Matches)
			rm := remap(b.Rows, build.Rows, ref.Matches)
			if len(gm) != len(rm) {
				t.Fatalf("join over chunks: %d matches, over gathered matrices %d", len(gm), len(rm))
			}
			for i := range rm {
				if gm[i].Left != rm[i].Left || gm[i].Right != rm[i].Right || math.Float32bits(gm[i].Sim) != math.Float32bits(rm[i].Sim) {
					t.Fatalf("match %d: %+v over chunks, %+v over gathered matrices", i, gm[i], rm[i])
				}
			}
		}
	}
}

// scanBlocks drains s and checks every block's embeddings against want,
// row for row and bit for bit: the rows its embeddings keep are its rows,
// and each kept row is the reference's vector of its global row. With a
// build block, each block is also joined against it (joinsMatchGathered).
// It returns the last block.
func scanBlocks(t *testing.T, s *Scan, want *mat.Matrix, build *Batch) *Batch {
	t.Helper()
	ctx := context.Background()
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	seen := 0
	var last *Batch
	for {
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Emb == nil || b.Emb.Rows() != len(b.EmbRows) || b.EmbKeep == nil && b.Emb.Rows() != b.Len() {
			t.Fatalf("block of %d rows carries %v embeddings of rows %v", b.Len(), b.Emb, b.EmbRows)
		}
		var kept []int
		for i, r := range b.EmbRows {
			if b.EmbKeep != nil && !b.EmbKeep.Get(i) {
				continue
			}
			kept = append(kept, r)
			got, exp := b.Emb.Row(i), want.Row(r)
			for k := range exp {
				if math.Float32bits(got[k]) != math.Float32bits(exp[k]) {
					t.Fatalf("row %d (block position %d): %v, want %v", r, i, got, exp)
				}
			}
		}
		if !slices.Equal(kept, b.Rows) {
			t.Fatalf("block of rows %v keeps embeddings of rows %v", b.Rows, kept)
		}
		if build != nil {
			joinsMatchGathered(t, b, build, want)
		}
		seen += b.Len()
		last = b
	}
	if seen != len(s.Rows()) {
		t.Fatalf("scanned %d rows, selection has %d", seen, len(s.Rows()))
	}
	if st := s.EmbedStats(); st.Name != "embed" || st.RowsOut != int64(seen) {
		t.Errorf("embed stats %+v after %d rows", st, seen)
	}
	if last == nil {
		last = &Batch{Emb: mat.New(0, want.Cols())}
	}
	return last
}

// TestScanEmbeddedViews: a block's embeddings are the resident chunks
// read in place, not a copy, and a warm scan makes no model call.
func TestScanEmbeddedViews(t *testing.T) {
	n := embstore.ChunkRows + 10
	words := make(relational.StringColumn, n)
	for i := range words {
		words[i] = fmt.Sprintf("row %d", i)
	}
	tbl, err := relational.NewTable(relational.Schema{{Name: "word", Type: relational.String}}, []relational.Column{words})
	if err != nil {
		t.Fatal(err)
	}
	tbl = tbl.WithIncarnation(9)
	base, err := model.NewHashEmbedder(8)
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewCountingModel(base)
	col := &EmbeddedColumn{Store: embstore.New(embstore.Config{}), Model: m, Column: "word"}
	ctx := context.Background()
	var views [2][2]*float32 // per pass, the first element of each block
	for pass := range views {
		s := &Scan{Table: tbl, Embedded: col, BlockRows: embstore.ChunkRows}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		for i := range views[pass] { // rows [0, ChunkRows), then the second chunk's 10
			b, err := s.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			views[pass][i] = &b.Emb.Row(0)[0]
		}
		if st := s.BatchStats(); pass == 1 && (st.ModelCalls != 0 || st.Hits != int64(n)) {
			t.Errorf("warm scan: %+v", st)
		}
	}
	if views[0] != views[1] {
		t.Error("two scans of resident chunks got different storage: blocks were copied")
	}
	if m.Calls() != int64(n) {
		t.Errorf("model calls = %d, want one per row (%d)", m.Calls(), n)
	}
}

// TestScanBlockHeldUntilRelease: a block a scan emitted stays intact until
// the scan's Release, while the store evicts its chunk and reads other
// chunks back from the spill file into recycled storage.
func TestScanBlockHeldUntilRelease(t *testing.T) {
	const dim = 8
	base, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*relational.Table, 3)
	for k := range tables {
		words := make(relational.StringColumn, embstore.ChunkRows)
		for i := range words {
			words[i] = fmt.Sprintf("table %d row %d", k, i)
		}
		tbl, err := relational.NewTable(relational.Schema{{Name: "word", Type: relational.String}}, []relational.Column{words})
		if err != nil {
			t.Fatal(err)
		}
		tables[k] = tbl.WithIncarnation(uint64(k + 1))
	}
	// A budget of about one chunk: every scan of another table evicts.
	store := embstore.New(embstore.Config{MaxBytes: embstore.ChunkRows * dim * 4 * 3 / 2})
	defer store.Close()
	col := &EmbeddedColumn{Store: store, Model: base, Column: "word"}
	ctx := context.Background()
	scan := func(k int) (*Scan, *Batch) {
		s := &Scan{Table: tables[k], Embedded: col, BlockRows: embstore.ChunkRows}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		b, err := s.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return s, b
	}
	for k := range tables {
		s, _ := scan(k)
		s.Release()
	}
	held, b := scan(0)
	for i := 0; i < 40; i++ {
		s, _ := scan(1 + i%2)
		s.Release()
	}
	if st := store.Stats(); st.Restored == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: the scans never cycled through the spill file", st)
	}
	words, _ := tables[0].Strings("word")
	want, err := core.Embed(ctx, base, words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		for j, x := range b.Emb.Row(i) {
			if x != want.Row(i)[j] {
				t.Fatalf("row %d of a block held before Release was overwritten", i)
			}
		}
	}
	held.Release()
}
