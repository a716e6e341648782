package embstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ejoin/internal/mat"
	"ejoin/internal/model"
)

// spillFixture is a store whose budget fits one chunk of rows texts but
// not two, so chunks taking turns evict each other (a chunk just built is
// evicted by the per-text references its adoption leaves).
type spillFixture struct {
	m     *model.CountingModel
	s     *Store
	texts [][]string // per chunk index
}

func newSpillFixture(t *testing.T, chunks, rows int) *spillFixture {
	t.Helper()
	f := &spillFixture{m: model.NewCountingModel(testModel(t, 16))}
	for c := 0; c < chunks; c++ {
		texts := make([]string, rows)
		for i := range texts {
			texts[i] = fmt.Sprintf("chunk %d row %d", c, i)
		}
		f.texts = append(f.texts, texts)
	}
	one := &entry{c: &Chunk{key: f.key(0), vecs: mat.New(rows, f.m.Dim())}}
	f.s = New(Config{MaxBytes: one.size() * 3 / 2})
	t.Cleanup(func() {
		if err := f.s.Close(); err != nil {
			t.Error(err)
		}
	})
	return f
}

func (f *spillFixture) key(c int) ChunkKey {
	return ChunkKey{Fingerprint: Fingerprint(f.m), Incarnation: 9, Column: "name", Index: c}
}

// read returns chunk c with every row, checking each vector bit for bit
// against the model's.
func (f *spillFixture) read(t *testing.T, c int) BatchStats {
	t.Helper()
	all := PrefixMask(len(f.texts[c]))
	ch, bs, err := f.s.Chunk(context.Background(), f.m, f.key(c), f.texts[c], all, all, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range f.texts[c] {
		if !vecsEqual(ch.Row(i), normalized(t, f.m.Inner, text)) {
			t.Fatalf("chunk %d row %d differs from the model's vector", c, i)
		}
	}
	return bs
}

// TestSpillRestoresWithoutModel: two chunks take turns through a store
// that fits one. The first round embeds both; after that every miss reads
// the evicted chunk back from the spill file, with no model call and
// bit-identical vectors, and an eviction whose slot already holds the
// chunk writes nothing.
func TestSpillRestoresWithoutModel(t *testing.T) {
	const rows = 64
	f := newSpillFixture(t, 2, rows)
	f.read(t, 0)
	f.read(t, 1)
	if calls := f.m.Calls(); calls != 2*rows {
		t.Fatalf("first round: %d model calls, want %d", calls, 2*rows)
	}
	f.m.Reset()
	for round := 0; round < 3; round++ {
		for c := 0; c < 2; c++ {
			bs := f.read(t, c)
			if bs.Restored != rows || bs.ModelCalls != 0 || bs.Misses != 0 || bs.Hits != 0 {
				t.Fatalf("round %d chunk %d: %+v, want %d restored rows and no model call", round, c, bs, rows)
			}
		}
	}
	st := f.s.Stats()
	if f.m.Calls() != 0 || st.ModelCalls != 2*rows {
		t.Fatalf("model calls after the first round: %d (store %d)", f.m.Calls(), st.ModelCalls)
	}
	if st.Restored != 6*rows || st.Spilled != 2 || st.Evictions < 7 {
		t.Errorf("stats %+v: want %d restored rows, 2 chunks spilled once each, an eviction per read", st, 6*rows)
	}
	if r := st.HitRatio(); r != 0 {
		t.Errorf("HitRatio = %v: a restored row is not an in-memory hit", r)
	}
}

// TestHeldChunkIsNotRecycled: a chunk a caller holds keeps its vectors
// while other chunks cycle through the spill tier and reuse the storage
// of the chunks no one holds, and a cycling column then allocates far less
// than a chunk per read.
func TestHeldChunkIsNotRecycled(t *testing.T) {
	const rows = ChunkRows
	f := newSpillFixture(t, 3, rows)
	all := PrefixMask(rows)
	ctx := context.Background()
	read := func(c int) *Chunk {
		ch, _, err := f.s.Chunk(ctx, f.m, f.key(c), f.texts[c], all, all, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	for c := 0; c < 3; c++ {
		read(c).Release()
	}
	held := read(0) // restored, then evicted by the reads below
	for i := 0; i < 50; i++ {
		read(1 + i%2).Release()
	}
	for i, text := range f.texts[0] {
		if !vecsEqual(held.Row(i), normalized(t, f.m.Inner, text)) {
			t.Fatalf("held chunk row %d was overwritten", i)
		}
	}
	held.Release()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reads = 200
	for i := 0; i < reads; i++ {
		read(i % 3).Release()
	}
	runtime.ReadMemStats(&after)
	chunkBytes := uint64(rows * f.m.Dim() * 4)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > chunkBytes/2 {
		t.Errorf("a restore allocates %d bytes, a chunk is %d: storage is not recycled", per, chunkBytes)
	}
	if f.m.Calls() != 3*rows {
		t.Errorf("%d model calls, want %d (one round)", f.m.Calls(), 3*rows)
	}
}

// TestSpillBadSlotFallsBack: a slot whose bytes were flipped, cut short,
// or overwritten with another chunk's image is not trusted — its rows go
// back to the model, bit-identical, and the slot leaves the index.
func TestSpillBadSlotFallsBack(t *testing.T) {
	const rows = 32
	cases := map[string]func(t *testing.T, f *spillFixture){
		"flipped": func(t *testing.T, f *spillFixture) {
			off := f.offset(0) + slotHeader + 5
			b := make([]byte, 1)
			if _, err := f.s.spill.f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x10
			if _, err := f.s.spill.f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, f *spillFixture) {
			if err := f.s.spill.f.Truncate(f.offset(0) + slotHeader + 7); err != nil {
				t.Fatal(err)
			}
		},
		"another key": func(t *testing.T, f *spillFixture) {
			b := make([]byte, slotHeader+rows*16*4)
			if _, err := f.s.spill.f.ReadAt(b, f.offset(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.s.spill.f.WriteAt(b, f.offset(0)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			f := newSpillFixture(t, 3, rows)
			for c := 0; c < 3; c++ {
				f.read(t, c) // chunks 0 and 1 spilled, 2 resident
			}
			if _, ok := f.s.spill.holds(f.key(1)); !ok {
				t.Fatal("chunk 1 was not spilled")
			}
			corrupt(t, f)
			f.m.Reset()
			if bs := f.read(t, 0); bs.Restored != 0 || bs.ModelCalls != rows {
				t.Fatalf("bad slot: %+v, want every row from the model", bs)
			}
			if bs := f.read(t, 1); name != "truncated" && bs.Restored != rows {
				t.Errorf("the intact slot of chunk 1: %+v, want it restored", bs)
			}
		})
	}
}

// offset is where chunk c's slot starts in the spill file.
func (f *spillFixture) offset(c int) int64 {
	f.s.spill.mu.Lock()
	defer f.s.spill.mu.Unlock()
	return f.s.spill.slots[f.key(c)].n * slotBytes(f.s.spill.dim)
}

// TestResidentCountsSpilledRows: the planner's resident share of a column
// stays whole after its chunks are evicted to the spill file, and reading
// it neither promotes nor restores anything.
func TestResidentCountsSpilledRows(t *testing.T) {
	const rows = 48
	f := newSpillFixture(t, 2, rows)
	f.read(t, 0)
	f.read(t, 1)
	if _, ok := f.s.PeekChunk(f.key(0)); ok {
		t.Fatal("chunk 0 still resident over a one-chunk budget")
	}
	key := f.key(0)
	if n := f.s.Resident(key, rows, nil); n != rows {
		t.Fatalf("Resident of an evicted, spilled chunk = %d, want %d", n, rows)
	}
	if n := f.s.Resident(key, rows, []int{1, 5, 7}); n != 3 {
		t.Errorf("Resident over 3 visible rows = %d, want 3", n)
	}
	if st := f.s.Stats(); st.Restored != 0 {
		t.Errorf("Resident restored %d rows", st.Restored)
	}
	f.s.DropChunk(key, f.texts[0])
	if n := f.s.Resident(key, rows, nil); n != 0 {
		t.Errorf("Resident after DropChunk = %d, want 0", n)
	}
}

// TestSpillSlotsBoundedByLiveChunks: a table dropped and created again,
// round after round, reuses the slots its dropped chunks held, so the
// file never grows past the chunks alive at once.
func TestSpillSlotsBoundedByLiveChunks(t *testing.T) {
	const chunks, rows = 3, 16
	f := newSpillFixture(t, chunks, rows)
	for round := 0; round < 5; round++ {
		inc := uint64(100 + round) // each creation is a new incarnation
		for c := 0; c < chunks; c++ {
			k := f.key(c)
			k.Incarnation = inc
			all := PrefixMask(rows)
			if _, _, err := f.s.Chunk(context.Background(), f.m, k, f.texts[c], all, all, BatchOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		f.s.spill.mu.Lock()
		used, next := len(f.s.spill.slots), f.s.spill.next
		f.s.spill.mu.Unlock()
		if used == 0 || next > chunks {
			t.Fatalf("round %d: %d slots in use, file of %d slots; want some, at most %d", round, used, next, chunks)
		}
		for c := 0; c < chunks; c++ { // the drop: every chunk of the incarnation
			k := f.key(c)
			k.Incarnation = inc
			f.s.DropChunk(k, f.texts[c])
		}
	}
	f.s.Reset()
	if _, ok := f.s.spill.holds(f.key(0)); ok || f.s.spill.next != 0 {
		t.Error("Reset left spill slots")
	}
}

// TestSpillConcurrentChunkDropShed races chunk reads (each a possible
// restore, eviction and spill write) against DropChunk and Shed on the
// same keys under a budget of about one chunk. Every vector read is the
// model's, bit for bit. Run with -race.
func TestSpillConcurrentChunkDropShed(t *testing.T) {
	const chunks, rows = 4, 32
	f := newSpillFixture(t, chunks, rows)
	want := make([][][]float32, chunks)
	for c := range want {
		for _, text := range f.texts[c] {
			want[c] = append(want[c], normalized(t, f.m.Inner, text))
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				c := r.Intn(chunks)
				k := f.key(c)
				switch op := r.Intn(10); {
				case op == 0:
					f.s.DropChunk(k, f.texts[c])
				case op == 1:
					var live RowMask
					for j := 0; j < rows; j += 3 {
						live.Set(j)
					}
					f.s.Shed(k, live, f.texts[c])
				default:
					var need RowMask
					for j := 0; j < rows; j++ {
						if r.Intn(2) == 0 {
							need.Set(j)
						}
					}
					ch, _, err := f.s.Chunk(ctx, f.m, k, f.texts[c], need, PrefixMask(rows), BatchOptions{Threads: 1})
					if err != nil {
						t.Error(err)
						return
					}
					for j := 0; j < rows; j++ {
						if need.Has(j) && !vecsEqual(ch.Row(j), want[c][j]) {
							t.Errorf("chunk %d row %d: wrong vector", c, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := f.s.Stats(); st.Spilled == 0 || st.Restored == 0 {
		t.Errorf("stats %+v: the race never spilled or restored", st)
	}
}

// slotImage is c's slot as the spill file holds it.
func slotImage(t testing.TB, c *Chunk) []byte {
	h, err := slotHeaderOf(c)
	if err != nil {
		t.Fatal(err)
	}
	return append(h[:], float32Bytes(c.vecs.Data)...)
}

// FuzzSpillSlot: any bytes read back as an error or as exactly the chunk
// asked for — its key, rows, width and checksum all match, so its image
// is the bytes it came from. Reading never panics and allocates at most
// one slot's vectors.
func FuzzSpillSlot(f *testing.F) {
	const dim = 4
	want := ChunkKey{Fingerprint: "fp/4", Incarnation: 3, Column: "name", Index: 2}
	for _, rows := range []int{0, 1, 5, ChunkRows} {
		c := &Chunk{key: want, filled: PrefixMask(rows), vecs: mat.New(rows, dim)}
		for i := range c.vecs.Data {
			c.vecs.Data[i] = float32(i) / 7
		}
		b := slotImage(f, c)
		f.Add(b)
		f.Add(b[:len(b)-1])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped)
	}
	other := want
	other.Index++
	f.Add(slotImage(f, &Chunk{key: other, filled: PrefixMask(2), vecs: mat.New(2, dim)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readSlot(bytes.NewReader(data), 0, want, dim)
		if err != nil {
			return
		}
		if c.key != want || c.vecs.Cols() != dim || c.vecs.Rows() != c.filled.Count() {
			t.Fatalf("read chunk %+v with %d x %d vectors", c.key, c.vecs.Rows(), c.vecs.Cols())
		}
		if img := slotImage(t, c); !bytes.HasPrefix(data, img) {
			t.Fatal("a chunk read back does not have the image it was read from")
		}
	})
}

// residentFixture is a spillFixture whose store keeps one chunk of rows
// texts resident, with the per-text references its adoption leaves, but
// not two: a second read of chunk 0 is a hit, and a read of chunk 1
// evicts chunk 0 to the spill file.
func residentFixture(t *testing.T, rows int) *spillFixture {
	t.Helper()
	f := newSpillFixture(t, 2, rows)
	all := PrefixMask(rows)
	probe := New(Config{})
	ch, _, err := probe.Chunk(context.Background(), f.m, f.key(0), f.texts[0], all, all, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch.Release()
	f.s.cfg.MaxBytes = probe.Stats().Bytes * 5 / 4
	f.m.Reset()
	return f
}

// hold reads chunk c with every row and keeps the caller's hold.
func (f *spillFixture) hold(t *testing.T, c int) (*Chunk, BatchStats) {
	t.Helper()
	all := PrefixMask(len(f.texts[c]))
	ch, bs, err := f.s.Chunk(context.Background(), f.m, f.key(c), f.texts[c], all, all, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ch, bs
}

// TestChunkHitTakesCallersHold: a resident chunk a hit hands out is held
// for that caller like a built one, so the store's eviction of it leaves
// it held, unrecycled, until the caller's Release.
func TestChunkHitTakesCallersHold(t *testing.T) {
	const rows = 32
	f := residentFixture(t, rows)
	built, _ := f.hold(t, 0)
	hit, bs := f.hold(t, 0)
	if hit != built || bs.Hits != rows {
		t.Fatalf("second read: %+v, want a hit on the resident chunk", bs)
	}
	if n := hit.refs.Load(); n != 3 {
		t.Fatalf("%d holders, want 3: the store and both callers", n)
	}
	built.Release()
	other, _ := f.hold(t, 1)
	other.Release()
	if !hit.evicted.Load() {
		t.Fatal("reading chunk 1 did not evict chunk 0")
	}
	if n := hit.refs.Load(); n != 1 {
		t.Fatalf("evicted chunk has %d holders, want 1: the caller of the hit", n)
	}
	for i, text := range f.texts[0] {
		if !vecsEqual(hit.Row(i), normalized(t, f.m.Inner, text)) {
			t.Fatalf("held chunk row %d differs from the model's vector", i)
		}
	}
	hit.Release()
	if n := hit.refs.Load(); n != 0 {
		t.Fatalf("%d holders after the last Release", n)
	}
}

// holdCheckFile is a spill file that checks, as the vectors of chunk c are
// written, that the evictor still holds c: once it lets go, c's storage
// may be recycled into another chunk under the write.
type holdCheckFile struct {
	spillFile
	t     *testing.T
	c     *Chunk
	wrote bool
}

func (f *holdCheckFile) WriteAt(b []byte, off int64) (int, error) {
	if v := f.c.vecs.Data; len(b) > 0 && unsafe.SliceData(b) == (*byte)(unsafe.Pointer(unsafe.SliceData(v))) {
		f.wrote = true
		if n := f.c.refs.Load(); n < 1 || f.c.evicted.Load() {
			f.t.Errorf("chunk written to its slot with %d holders, evicted %v: the evictor let go first", n, f.c.evicted.Load())
		}
	}
	return f.spillFile.WriteAt(b, off)
}

// TestEvictorHoldsChunkThroughSpillWrite: the store's hold on an evicted
// chunk no caller holds is given up only after the chunk's spill slot is
// written.
func TestEvictorHoldsChunkThroughSpillWrite(t *testing.T) {
	f := residentFixture(t, 32)
	c0, _ := f.hold(t, 0)
	c0.Release()
	sp := &f.s.spill
	sp.mu.Lock()
	if !sp.open() {
		sp.mu.Unlock()
		t.Fatal("no spill file")
	}
	w := &holdCheckFile{spillFile: sp.f, t: t, c: c0}
	sp.f = w
	sp.mu.Unlock()
	c1, _ := f.hold(t, 1)
	c1.Release()
	if !w.wrote {
		t.Fatal("chunk 0 was not written to the spill file")
	}
	if n := c0.refs.Load(); n != 0 || !c0.evicted.Load() {
		t.Fatalf("after its eviction chunk 0 has %d holders, evicted %v", n, c0.evicted.Load())
	}
}

// TestMissDuringSpillWriteReusesChunk: a chunk trim has dropped but not
// yet written to its spill slot is neither resident nor in the spill
// index. A miss in that window takes the evicting chunk's vectors back
// instead of embedding its rows again. The test holds the spill tier's
// lock, which freezes the evictor inside the window.
func TestMissDuringSpillWriteReusesChunk(t *testing.T) {
	const rows = 32
	f := residentFixture(t, rows)
	c0, _ := f.hold(t, 0)
	c0.Release()
	f.m.Reset()
	sh := f.s.chunkShard(f.key(0))
	resident := func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, ok := sh.chunks[f.key(0)]
		return ok
	}
	await := func(cond func() bool, what string) bool {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if cond() {
				return true
			}
		}
		t.Errorf("%s within 10 s", what)
		return false
	}

	sp := &f.s.spill
	sp.mu.Lock()
	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		// A per-text entry the size of a chunk: chunk 0, the least
		// recently used entry, is evicted for it.
		f.s.Put(Fingerprint(f.m), "filler", make([]float32, rows*f.m.Dim()))
	}()
	await(func() bool { return !resident() }, "chunk 0 was not evicted")

	type read struct {
		c   *Chunk
		bs  BatchStats
		err error
	}
	got := make(chan read, 1)
	go func() {
		all := PrefixMask(rows)
		c, bs, err := f.s.Chunk(context.Background(), f.m, f.key(0), f.texts[0], all, all, BatchOptions{})
		got <- read{c, bs, err}
	}()
	var r read
	reused := await(func() bool {
		select {
		case r = <-got:
			return true
		default:
			return false
		}
	}, "a miss during the spill write did not complete")
	sp.mu.Unlock()
	<-evicted
	if !reused {
		r = <-got
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.c.Release()
	if r.bs.ModelCalls != 0 || r.bs.Hits != rows || f.m.Calls() != 0 {
		t.Fatalf("miss during the spill write: %+v, %d model calls; want %d rows reused and no model call", r.bs, f.m.Calls(), rows)
	}
	for i, text := range f.texts[0] {
		if !vecsEqual(r.c.Row(i), normalized(t, f.m.Inner, text)) {
			t.Fatalf("row %d differs from the model's vector", i)
		}
	}
	if !resident() {
		t.Error("the reused chunk is not resident again")
	}
}
