package embstore

// The spill tier: a column chunk the LRU evicts is written to one
// fixed-size slot of a per-store file, and a chunk miss reads its slot
// back before it calls the model, so a column larger than the byte budget
// is still embedded once. A chunk's rows are immutable for its key (the
// physical rows of a table lineage are append-only), so a slot that
// verifies is right whenever it is read; one that does not is forgotten
// and its rows go back to the model.
//
// The file is created at the first chunk eviction and unlinked at once,
// so nothing outlives the process. Its slots are reused: DropChunk,
// DropLineage and Reset free them, so the file is bounded by the chunks
// of live tables.
// Slot I/O uses pread/pwrite under the spill's lock (a 256-row chunk at
// d = 100 is ~100 KB); the lock is a leaf, taken with no shard lock held.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"unsafe"
)

// A slot is a header followed by the chunk's packed vectors:
//
//	magic u32 | crc u32 | incarnation u64 | index u64 | dim u32 | rows u32 |
//	filled [ChunkRows/64]u64 | len(fingerprint) u16 | len(column) u16 |
//	fingerprint, column (slotKeyMax bytes) | rows×dim float32
//
// with the header little-endian and the vectors as they lie in memory (the
// file never leaves the process), and the CRC32C over everything after the
// crc field up to the last vector. A slot has room for ChunkRows vectors.
const (
	slotMagic  = 0x45534c54 // "TLSE"
	slotKeyMax = 256        // fingerprint and column bytes a header holds
	slotHeader = 4 + 4 + 8 + 8 + 4 + 4 + 8*ChunkRows/64 + 2 + 2 + slotKeyMax
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotBytes is the fixed size of one slot for dim-wide vectors.
func slotBytes(dim int) int64 { return slotHeader + ChunkRows*int64(dim)*4 }

// float32Bytes is v's memory as bytes, the encoding of v in a slot.
func float32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// slotHeaderOf is c's slot header. The slot's image is the header then
// float32Bytes of c's vectors (the rows it holds, not the slot's unused
// tail). It fails when the key does not fit a header.
func slotHeaderOf(c *Chunk) ([slotHeader]byte, error) {
	var h [slotHeader]byte
	fp, col := c.key.Fingerprint, c.key.Column
	if len(fp)+len(col) > slotKeyMax {
		return h, fmt.Errorf("embstore: chunk key of %d bytes does not fit a spill slot", len(fp)+len(col))
	}
	le := binary.LittleEndian
	le.PutUint32(h[0:], slotMagic)
	le.PutUint64(h[8:], c.key.Incarnation)
	le.PutUint64(h[16:], uint64(c.key.Index))
	le.PutUint32(h[24:], uint32(c.vecs.Cols()))
	le.PutUint32(h[28:], uint32(c.filled.Count()))
	off := 32
	for _, w := range c.filled {
		le.PutUint64(h[off:], w)
		off += 8
	}
	le.PutUint16(h[off:], uint16(len(fp)))
	le.PutUint16(h[off+2:], uint16(len(col)))
	off += 4
	copy(h[off+copy(h[off:], fp):], col)
	le.PutUint32(h[4:], slotChecksum(h[:], float32Bytes(c.vecs.Data)))
	return h, nil
}

// slotChecksum is the CRC32C a slot with header h and vector bytes v
// carries.
func slotChecksum(h, v []byte) uint32 {
	return crc32.Update(crc32.Checksum(h[8:], castagnoli), castagnoli, v)
}

// errSlot is why a slot does not read back as the chunk asked for.
var errSlot = errors.New("embstore: spill slot")

// readSlot reads the slot at off of r as the chunk of key want with
// dim-wide vectors. Anything else — a torn or flipped image, another
// key's slot, another dimensionality — is an error. It allocates at most
// one slot's vectors, and only once the header has verified.
func readSlot(r io.ReaderAt, off int64, want ChunkKey, dim int) (*Chunk, error) {
	var h [slotHeader]byte
	if _, err := r.ReadAt(h[:], off); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", errSlot, err)
	}
	le := binary.LittleEndian
	if le.Uint32(h[0:]) != slotMagic {
		return nil, fmt.Errorf("%w: bad magic", errSlot)
	}
	if d := le.Uint32(h[24:]); d != uint32(dim) {
		return nil, fmt.Errorf("%w: dim %d, want %d", errSlot, d, dim)
	}
	c := &Chunk{key: want}
	at := 32
	for w := range c.filled {
		c.filled[w] = le.Uint64(h[at:])
		at += 8
	}
	rows := c.filled.Count()
	if n := le.Uint32(h[28:]); n != uint32(rows) {
		return nil, fmt.Errorf("%w: %d rows, mask holds %d", errSlot, n, rows)
	}
	fpLen, colLen := int(le.Uint16(h[at:])), int(le.Uint16(h[at+2:]))
	at += 4
	if fpLen+colLen > slotKeyMax {
		return nil, fmt.Errorf("%w: key of %d bytes", errSlot, fpLen+colLen)
	}
	if le.Uint64(h[8:]) != want.Incarnation || le.Uint64(h[16:]) != uint64(want.Index) ||
		string(h[at:at+fpLen]) != want.Fingerprint || string(h[at+fpLen:at+fpLen+colLen]) != want.Column {
		return nil, fmt.Errorf("%w: holds another chunk", errSlot)
	}
	for _, x := range h[at+fpLen+colLen:] {
		if x != 0 {
			return nil, fmt.Errorf("%w: key padding not zero", errSlot)
		}
	}
	c.setVecs(newVecs(rows, dim))
	v := float32Bytes(c.vecs.Data)
	if _, err := r.ReadAt(v, off+slotHeader); err != nil {
		return nil, fmt.Errorf("%w: reading %d rows: %v", errSlot, rows, err)
	}
	if slotChecksum(h[:], v) != le.Uint32(h[4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errSlot)
	}
	return c, nil
}

// spill is a store's second tier for column chunks: an index of the slots
// written, over one unlinked temporary file of fixed-size slots.
type spill struct {
	mu     sync.Mutex
	f      spillFile
	closed bool // Close ran, or the file could not be made: spill no more
	dim    int  // the vectors' width; fixed while any slot is in use
	slots  map[ChunkKey]slot
	free   []int64 // released slot numbers, reused before the file grows
	next   int64   // slot numbers in [0, next) exist in the file
}

// spillFile is what the spill tier uses of its *os.File (an interface so
// that tests can watch the writes).
type spillFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Close() error
}

// slot is where one chunk's image lives and which rows it holds.
type slot struct {
	n      int64
	filled RowMask
}

// put writes c to its key's slot, unless that slot already holds the same
// rows, and reports whether it wrote. A chunk of a dropped lineage (gone,
// read under the spill's lock, so a DropLineage racing the eviction frees
// the slot afterwards or sees nothing to free), of another width than the
// slots in use, or whose key does not fit a header, is not spilled; a
// failed write forgets the slot.
func (sp *spill) put(c *Chunk, gone *lineages) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed || gone.has(c.key) {
		return false
	}
	if sl, ok := sp.slots[c.key]; ok && sl.filled == c.filled {
		return false
	}
	if len(sp.slots) == 0 {
		sp.dim, sp.next, sp.free = c.vecs.Cols(), 0, sp.free[:0]
	}
	if c.vecs.Cols() != sp.dim || !sp.open() {
		return false
	}
	h, err := slotHeaderOf(c)
	if err != nil {
		return false
	}
	sl, ok := sp.slots[c.key]
	if !ok {
		sl.n = sp.next
		if k := len(sp.free); k > 0 {
			sl.n, sp.free = sp.free[k-1], sp.free[:k-1]
		} else {
			sp.next++
		}
	}
	sl.filled = c.filled
	sp.slots[c.key] = sl
	off := sl.n * slotBytes(sp.dim)
	_, err = sp.f.WriteAt(h[:], off)
	if err == nil {
		_, err = sp.f.WriteAt(float32Bytes(c.vecs.Data), off+slotHeader)
	}
	if err != nil {
		sp.dropLocked(c.key)
		return false
	}
	return true
}

// open creates the spill file on first use and unlinks it, so the only
// reference left is the descriptor; it reports whether the file is open.
// The caller holds sp.mu.
func (sp *spill) open() bool {
	if sp.f != nil {
		return true
	}
	f, err := os.CreateTemp("", "embstore-spill-*")
	if err != nil {
		sp.closed = true
		return false
	}
	if err := os.Remove(f.Name()); err != nil {
		// A file that cannot be unlinked would outlive the process.
		_ = f.Close()
		sp.closed = true
		return false
	}
	sp.f = f
	return true
}

// get reads key's slot back as a chunk of dim-wide vectors, or returns
// nil. A slot that does not read back as exactly the chunk the index
// recorded is forgotten, so its rows go back to the model.
func (sp *spill) get(key ChunkKey, dim int) *Chunk {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sl, ok := sp.slots[key]
	if !ok || dim != sp.dim {
		return nil
	}
	c, err := readSlot(sp.f, sl.n*slotBytes(dim), key, dim)
	if err != nil || c.filled != sl.filled {
		sp.dropLocked(key)
		return nil
	}
	return c
}

// holds reports the rows key's slot holds, from the index alone.
func (sp *spill) holds(key ChunkKey) (RowMask, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sl, ok := sp.slots[key]
	return sl.filled, ok
}

// drop frees key's slot for reuse.
func (sp *spill) drop(key ChunkKey) {
	sp.mu.Lock()
	sp.dropLocked(key)
	sp.mu.Unlock()
}

func (sp *spill) dropLocked(key ChunkKey) {
	if sl, ok := sp.slots[key]; ok {
		delete(sp.slots, key)
		sp.free = append(sp.free, sl.n)
	}
}

// reset frees every slot and gives the file's space back.
func (sp *spill) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	clear(sp.slots)
	sp.free, sp.next = sp.free[:0], 0
	if sp.f != nil {
		// A file that keeps its length still works: slots are overwritten.
		_ = sp.f.Truncate(0)
	}
}

// close releases the file; nothing is spilled after it.
func (sp *spill) close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.closed = true
	clear(sp.slots)
	sp.free, sp.next = nil, 0
	if sp.f == nil {
		return nil
	}
	err := sp.f.Close()
	sp.f = nil
	if err != nil {
		return fmt.Errorf("embstore: closing spill file: %w", err)
	}
	return nil
}
