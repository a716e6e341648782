package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LogConfig tunes a segment log. The zero value is usable.
type LogConfig struct {
	// SegmentBytes rotates the active segment past this size (default
	// 64 MiB). Sealed segments are immutable until compaction.
	SegmentBytes int64
	// SyncEvery fsyncs the active segment every N appends (default 256;
	// 1 = sync every record). Sync() and Close() always fsync, so the
	// exposure window is bounded appends, never unbounded time at rest.
	SyncEvery int
}

func (c LogConfig) withDefaults() LogConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 256
	}
	return c
}

// RecoveryStats reports what opening a log found on disk.
type RecoveryStats struct {
	// Segments is the number of segment files present after recovery.
	Segments int `json:"segments"`
	// Records is the number of valid records across all segments.
	Records int64 `json:"records"`
	// TruncatedBytes is how much torn tail was cut from the last segment.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// SkippedSegments counts sealed segments with corruption past which
	// recovery skipped (their valid prefix still replayed).
	SkippedSegments int `json:"skipped_segments"`
	// Reasons collects one description per truncation/skip, for logs.
	Reasons []string `json:"reasons,omitempty"`
}

// Log is an append-only segment log in one directory. Appends, Sync,
// Replay, and Compact are safe for concurrent use.
type Log struct {
	dir string
	cfg LogConfig

	mu          sync.Mutex
	active      *os.File
	activeID    uint64
	activeSize  int64
	sinceSync   int
	recovery    RecoveryStats
	appended    int64
	lastErr     error
	sealedBytes int64 // total size of sealed segments
	closed      bool
}

// LogStats snapshots a log's counters.
type LogStats struct {
	// Segments is the current segment file count.
	Segments int `json:"segments"`
	// Bytes is the total on-disk size (sealed + active).
	Bytes int64 `json:"bytes"`
	// Appended is the number of records appended this session.
	Appended int64 `json:"appended"`
	// Recovery is what opening found.
	Recovery RecoveryStats `json:"recovery"`
}

// segName renders a segment file name; ids ascend, names sort.
func segName(id uint64) string { return fmt.Sprintf("seg-%010d.log", id) }

// parseSegName extracts the id from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	id, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// listSegments returns the segment ids in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: listing %s: %w", dir, err)
	}
	var ids []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if id, ok := parseSegName(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// OpenLog opens (or creates) the segment log in dir and recovers it:
// every segment is scanned, replay calls fn per valid record in append
// order, the active (last) segment's torn tail is truncated, and sealed
// segments with mid-file corruption are replayed up to the corruption and
// skipped past. fn may be nil to recover without replaying. New appends
// go to the last segment (reopened after truncation) or a fresh one.
func OpenLog(dir string, cfg LogConfig, fn func(Record) error) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, cfg: cfg}

	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		path := filepath.Join(dir, segName(id))
		res, err := l.recoverSegment(path, fn)
		if err != nil {
			return nil, err
		}
		l.recovery.Records += res.records
		last := i == len(ids)-1
		if res.truncated {
			if last {
				// Torn tail of the segment that was active at crash time:
				// truncate so the file is cleanly appendable again.
				info, statErr := os.Stat(path)
				if statErr == nil {
					l.recovery.TruncatedBytes += info.Size() - res.validLen
				}
				if err := os.Truncate(path, res.validLen); err != nil {
					return nil, fmt.Errorf("durable: truncating torn tail of %s: %w", path, err)
				}
			} else {
				// A sealed segment should never be partial; replay its valid
				// prefix and move on rather than refusing to start.
				l.recovery.SkippedSegments++
			}
			l.recovery.Reasons = append(l.recovery.Reasons, fmt.Sprintf("%s: %s", segName(id), res.reason))
		}
		if last {
			l.activeID = id
			l.activeSize = res.validLen
		} else if info, err := os.Stat(path); err == nil {
			l.sealedBytes += info.Size()
		}
	}
	l.recovery.Segments = len(ids)

	switch {
	case len(ids) == 0:
		if err := l.rotateLocked(1); err != nil {
			return nil, err
		}
		l.recovery.Segments = 1
	case l.activeSize < int64(len(segMagic)):
		// The last segment's magic itself is missing or corrupt (crash
		// between create and magic write, or a flipped header byte): the
		// truncated file has no valid header, so appending to it would
		// write records the next recovery discards wholesale. Start a
		// fresh segment instead.
		if err := l.rotateLocked(l.activeID + 1); err != nil {
			return nil, err
		}
		l.recovery.Segments++
	default:
		f, err := os.OpenFile(filepath.Join(dir, segName(l.activeID)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: reopening active segment: %w", err)
		}
		l.active = f
	}
	return l, nil
}

// recoverSegment scans one segment file.
func (l *Log) recoverSegment(path string, fn func(Record) error) (scanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, fmt.Errorf("durable: opening %s: %w", path, err)
	}
	defer f.Close()
	return scanSegment(f, fn)
}

// rotateLocked seals the active segment and starts a new one with id.
// Caller holds l.mu (or is initializing).
func (l *Log) rotateLocked(id uint64) error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("durable: syncing sealed segment: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("durable: closing sealed segment: %w", err)
		}
		l.sealedBytes += l.activeSize
	}
	path := filepath.Join(l.dir, segName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: creating segment %s: %w", path, err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing segment magic: %w", err)
	}
	// Make the new segment's directory entry durable: records fsynced into
	// it are only recoverable if the file name itself survives the crash.
	SyncDir(l.dir)
	l.active = f
	l.activeID = id
	l.activeSize = int64(len(segMagic))
	l.sinceSync = 0
	return nil
}

// Append durably-enough appends one record: it is in the OS page cache on
// return and fsynced within SyncEvery appends (or the next Sync/Close).
func (l *Log) Append(rec Record) error {
	buf, err := appendRecord(nil, rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("durable: append to closed log")
	}
	if l.active == nil {
		// A failed compaction reopen left no active segment; recover by
		// starting a fresh one rather than failing every append.
		if err := l.rotateLocked(l.activeID + 1); err != nil {
			l.lastErr = err
			return err
		}
	}
	if l.activeSize >= l.cfg.SegmentBytes {
		if err := l.rotateLocked(l.activeID + 1); err != nil {
			l.lastErr = err
			return err
		}
	}
	if _, err := l.active.Write(buf); err != nil {
		l.lastErr = err
		return fmt.Errorf("durable: appending record: %w", err)
	}
	l.activeSize += int64(len(buf))
	l.appended++
	l.sinceSync++
	if l.sinceSync >= l.cfg.SyncEvery {
		l.sinceSync = 0
		if err := l.active.Sync(); err != nil {
			l.lastErr = err
			return fmt.Errorf("durable: syncing segment: %w", err)
		}
	}
	return nil
}

// Sync fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.active == nil {
		return nil
	}
	l.sinceSync = 0
	if err := l.active.Sync(); err != nil {
		l.lastErr = err
		return fmt.Errorf("durable: syncing segment: %w", err)
	}
	return nil
}

// Compact rewrites the log as one segment holding exactly the records
// source emits (typically the store's current live entries), then deletes
// the old segments. Appends block for the duration. Crash safety: the
// compacted segment is written to a temp file and renamed into place
// before old segments are removed, so a crash mid-compaction leaves
// either the old segments (plus a stray temp file) or the new segment
// plus not-yet-deleted old ones — duplicate replay is idempotent.
func (l *Log) Compact(source func(emit func(Record) error) error) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("durable: compact on closed log")
	}
	// Seal the active segment so the new compacted segment gets a higher id.
	if err := l.active.Sync(); err != nil {
		return 0, fmt.Errorf("durable: syncing before compaction: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return 0, fmt.Errorf("durable: closing before compaction: %w", err)
	}
	l.active = nil
	oldIDs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	newID := l.activeID + 1

	var newSize int64
	var records int64
	path := filepath.Join(l.dir, segName(newID))
	err = AtomicWriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if _, err := bw.Write(segMagic[:]); err != nil {
			return fmt.Errorf("durable: writing compacted magic: %w", err)
		}
		newSize = int64(len(segMagic))
		var buf []byte
		emit := func(rec Record) error {
			var err error
			buf, err = appendRecord(buf[:0], rec)
			if err != nil {
				return err
			}
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("durable: writing compacted record: %w", err)
			}
			newSize += int64(len(buf))
			records++
			return nil
		}
		if err := source(emit); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		// Old segments are intact; reopen the previous active one.
		if reopenErr := l.reopenActiveLocked(); reopenErr != nil {
			return 0, fmt.Errorf("%w (and reopening active segment failed: %v)", err, reopenErr)
		}
		return 0, err
	}

	for _, id := range oldIDs {
		if id == newID {
			continue
		}
		if rmErr := os.Remove(filepath.Join(l.dir, segName(id))); rmErr == nil {
			removed++
		}
	}
	SyncDir(l.dir)

	// Adopt the compacted segment's identity before trying to reopen it:
	// if the reopen fails, Append's self-heal rotates to newID+1 rather
	// than colliding with the compacted file.
	l.activeID = newID
	l.activeSize = newSize
	l.sealedBytes = 0
	l.sinceSync = 0
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.sealedBytes = newSize // the compacted segment is sealed, not active
		return removed, fmt.Errorf("durable: reopening compacted segment: %w", err)
	}
	l.active = f
	return removed, nil
}

// reopenActiveLocked restores the pre-compaction active segment after a
// failed compaction. Caller holds l.mu.
func (l *Log) reopenActiveLocked() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.activeID)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	return nil
}

// Stats snapshots the log.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := 1
	if ids, err := listSegments(l.dir); err == nil {
		segs = len(ids)
	}
	return LogStats{
		Segments: segs,
		Bytes:    l.sealedBytes + l.activeSize,
		Appended: l.appended,
		Recovery: l.recovery,
	}
}

// Close fsyncs and closes the active segment. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return fmt.Errorf("durable: syncing on close: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("durable: closing log: %w", err)
	}
	l.active = nil
	return nil
}
