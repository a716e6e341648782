package mat

import (
	"sync"
	"time"
)

// blockBuf is a reusable similarity-block buffer for ForEachBlock. It
// comes back dirty: MulTransposeInto overwrites every cell it exposes.
type blockBuf struct {
	data     []float32
	returned time.Time
}

// blockBufIdle is how long an unused buffer is kept: long enough that a
// steady query stream always finds its buffers again, short enough that
// one large join does not pin its block for the life of the process.
const blockBufIdle = 10 * time.Second

// blockBufs is a free list rather than a sync.Pool. A sync.Pool hides a
// buffer put on one P from a get on another and keeps a second generation
// in its victim cache; with multi-megabyte blocks on a 2-core server that
// cost both reuse (about one block in three was allocated afresh) and
// resident memory. Here a get sees every free buffer, and a get that
// finds none large enough replaces one, so the list never holds more
// buffers than were in use at once.
var blockBufs struct {
	sync.Mutex
	free []*blockBuf // in order of return, oldest first
}

// getBlockBuf returns a buffer of length n with arbitrary contents: the
// smallest free one that fits, or a new one in place of the smallest.
func getBlockBuf(n int) *blockBuf {
	l := &blockBufs
	l.Lock()
	fit, smallest := -1, -1
	for i, b := range l.free {
		if cap(b.data) >= n && (fit < 0 || cap(b.data) < cap(l.free[fit].data)) {
			fit = i
		}
		if smallest < 0 || cap(b.data) < cap(l.free[smallest].data) {
			smallest = i
		}
	}
	take := fit
	if take < 0 {
		take = smallest
	}
	var b *blockBuf
	if take >= 0 {
		b = l.free[take]
		l.free = append(l.free[:take], l.free[take+1:]...)
	}
	l.Unlock()
	if fit < 0 {
		return &blockBuf{data: make([]float32, n)}
	}
	b.data = b.data[:n]
	return b
}

// putBlockBuf returns a buffer to the free list and drops the buffers
// that have sat there unused for blockBufIdle.
func putBlockBuf(b *blockBuf) {
	now := time.Now()
	b.returned = now
	l := &blockBufs
	l.Lock()
	stale := 0
	for stale < len(l.free) && now.Sub(l.free[stale].returned) > blockBufIdle {
		l.free[stale] = nil
		stale++
	}
	l.free = append(l.free[stale:], b)
	l.Unlock()
}
