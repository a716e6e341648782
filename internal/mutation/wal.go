// Package mutation is the live-update subsystem: a write-ahead log in
// front of the durable layer, row-level upsert/delete with per-table
// monotonically increasing generations, and MVCC read snapshots.
//
// The paper's pipeline treats relations as static inputs: ingest, embed,
// index, join. Real context-enhanced workloads churn — documents are
// corrected, products retired, rows re-scored — and re-ingesting a table
// to change one row forfeits exactly the amortization the embedding cache
// buys. This package makes row-level change first-class while preserving
// that win:
//
//   - every mutation is appended to a checksummed WAL (fsync per append)
//     before it is applied, so a crash replays the tail instead of losing
//     acknowledged writes. Batches carry text rows, not vectors: the same
//     log also holds an embedding record for every vector the embedding
//     store computed with a model call (appended write-behind, fsynced in
//     groups and by the next mutation's fsync), and replay loads those,
//     so the replayed rows' embeddings cost zero model calls;
//   - each table's state is an immutable Version (table + live bitmap +
//     generation); queries pin the current version and never block on, or
//     observe, a half-applied batch — writers publish a new version with
//     one atomic pointer swap (copy-on-write, linear version chain);
//   - upserts and deletes tombstone rows, so a version's row ids stay
//     stable for the readers pinning it; scans mask tombstones with the
//     version's live bitmap;
//   - once tombstones outnumber live rows (and number at least 256), the
//     mutation publishes the table compacted to its live rows under a
//     fresh row lineage, so a churned table costs its live rows, not its
//     history; the version carries the kept list each holder of row ids
//     (the column chunks) follows, and because the rule reads only
//     version state, replay compacts at the same generations.
//
// Checkpointing folds the current versions into the durable layer's table
// files (plus a tombstone sidecar per table) and rewrites the WAL down to
// its embedding records; boot replays only the mutation records newer than
// the last checkpoint, gated by each table's incarnation id so records
// from a dropped table can never leak into a same-name successor.
package mutation

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"ejoin/internal/durable"
	"ejoin/internal/relational"
)

// walMagic heads the mutation WAL file.
var walMagic = [8]byte{'E', 'J', 'W', 'A', 'L', '0', '0', '1'}

// segMagic heads each file of the embedding segment log that older data
// directories kept beside the WAL (ImportSegmentLog).
var segMagic = [8]byte{'E', 'J', 'S', 'E', 'G', '0', '0', '1'}

// crcTable is the Castagnoli polynomial, matching the durable formats.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxWalRecordLen bounds a single record payload (1 GiB), so a corrupt
// length field cannot drive a huge allocation during recovery.
const maxWalRecordLen = 1 << 30

// Embedding record limits: a length past one is corruption, not an
// allocation request.
const (
	maxFingerprintLen = 1 << 16
	maxInputLen       = 1 << 24
	maxVectorDim      = 1 << 20
)

// RecordKind discriminates WAL record payloads.
type RecordKind uint8

const (
	// KindUpsert carries a batch of full rows to insert-or-replace.
	KindUpsert RecordKind = 1
	// KindDelete carries key strings whose live rows are tombstoned.
	KindDelete RecordKind = 2
	// KindEmbedding carries one vector the embedding store computed with
	// a model call (Record.Emb), so a reboot serves it without one.
	KindEmbedding RecordKind = 3
)

// Record is one logged mutation or embedding. For KindUpsert, Batch is
// the row batch itself (schema matching the target table). For
// KindDelete, Batch is a single-column String table named "key" holding
// the deleted keys in canonical form (see KeyString). A KindEmbedding
// record sets only Emb.
type Record struct {
	Kind RecordKind
	// Incarnation identifies the registration of Table the record belongs
	// to; replay drops records whose incarnation does not match the
	// manifest's, so a dropped-then-recreated name never inherits them.
	Incarnation uint64
	// Gen is the table's row-level generation after applying this record.
	Gen uint64
	// Table is the catalog name (canonical lower-case).
	Table string
	// KeyCol names the column upsert matching / delete lookup keys on.
	KeyCol string
	// Batch holds the record's rows (see kind docs above).
	Batch *relational.Table
	// Emb is a KindEmbedding record's entry.
	Emb Embedding
}

// Embedding is one embedding-store entry: the unit vector the model with
// Fingerprint (embstore.Fingerprint) computed for Input.
type Embedding struct {
	Fingerprint string
	Input       string
	Vec         []float32
}

// appendPayload appends a record body (everything the CRC covers) to buf:
// a kind byte, then for KindUpsert and KindDelete
//
//	u64 incarnation
//	u64 gen
//	u16 len(table) | table bytes
//	u16 len(keyCol) | keyCol bytes
//	table-file encoding of Batch (self-framing, CRC of its own)
//
// and for KindEmbedding
//
//	u32 len(fingerprint) | u32 len(input) | u32 dim | fingerprint | input | dim × f32
func appendPayload(buf []byte, rec Record) ([]byte, error) {
	le := binary.LittleEndian
	buf = append(buf, byte(rec.Kind))
	switch rec.Kind {
	case KindEmbedding:
		e := rec.Emb
		if len(e.Fingerprint) > maxFingerprintLen || len(e.Input) > maxInputLen || len(e.Vec) > maxVectorDim {
			return nil, fmt.Errorf("mutation: embedding record too large (fingerprint %d bytes, input %d bytes, dim %d)",
				len(e.Fingerprint), len(e.Input), len(e.Vec))
		}
		buf = le.AppendUint32(buf, uint32(len(e.Fingerprint)))
		buf = le.AppendUint32(buf, uint32(len(e.Input)))
		buf = le.AppendUint32(buf, uint32(len(e.Vec)))
		buf = append(buf, e.Fingerprint...)
		buf = append(buf, e.Input...)
		for _, v := range e.Vec {
			buf = le.AppendUint32(buf, math.Float32bits(v))
		}
		return buf, nil
	case KindUpsert, KindDelete:
	default:
		return nil, fmt.Errorf("mutation: unknown record kind %d", rec.Kind)
	}
	if len(rec.Table) > 1<<16-1 || len(rec.KeyCol) > 1<<16-1 {
		return nil, errors.New("mutation: table or key column name too long")
	}
	buf = le.AppendUint64(buf, rec.Incarnation)
	buf = le.AppendUint64(buf, rec.Gen)
	buf = le.AppendUint16(buf, uint16(len(rec.Table)))
	buf = append(buf, rec.Table...)
	buf = le.AppendUint16(buf, uint16(len(rec.KeyCol)))
	buf = append(buf, rec.KeyCol...)
	return durable.AppendTable(buf, rec.Batch)
}

// appendFrame appends rec framed as the log stores it:
//
//	u32 len(payload) | u32 crc32c(payload) | payload
func appendFrame(buf []byte, rec Record) ([]byte, error) {
	start := len(buf)
	buf, err := appendPayload(binary.LittleEndian.AppendUint64(buf, 0), rec)
	if err != nil {
		return nil, err
	}
	p := buf[start+8:]
	if len(p) > maxWalRecordLen {
		return nil, fmt.Errorf("mutation: record of %d bytes exceeds wal limit", len(p))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(p)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, crcTable))
	return buf, nil
}

// decodePayload parses a record body appendPayload wrote. It accepts a
// body only in the one encoding appendPayload gives its record, so every
// record replay accepts re-encodes to the bytes it came from.
func decodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, errors.New("mutation: empty record")
	}
	kind := RecordKind(p[0])
	if kind == KindEmbedding {
		e, err := decodeEmbedding(p[1:])
		return Record{Kind: KindEmbedding, Emb: e}, err
	}
	if kind != KindUpsert && kind != KindDelete {
		return Record{}, fmt.Errorf("mutation: unknown record kind %d", kind)
	}
	rec := Record{Kind: kind}
	le := binary.LittleEndian
	rest := p[1:]
	short := errors.New("mutation: short record")
	if len(rest) < 16 {
		return rec, short
	}
	rec.Incarnation, rec.Gen, rest = le.Uint64(rest), le.Uint64(rest[8:]), rest[16:]
	readStr := func() (string, error) {
		if len(rest) < 2 || len(rest) < 2+int(le.Uint16(rest)) {
			return "", short
		}
		n := int(le.Uint16(rest))
		s := string(rest[2 : 2+n])
		rest = rest[2+n:]
		return s, nil
	}
	var err error
	if rec.Table, err = readStr(); err != nil {
		return rec, err
	}
	if rec.KeyCol, err = readStr(); err != nil {
		return rec, err
	}
	if rec.Batch, err = durable.DecodeTable(rest); err != nil {
		return rec, fmt.Errorf("mutation: record batch: %w", err)
	}
	return rec, nil
}

// decodeEmbedding parses an embedding record's body after its kind byte —
// the whole payload of a segment-log record.
func decodeEmbedding(p []byte) (Embedding, error) {
	le := binary.LittleEndian
	if len(p) < 12 {
		return Embedding{}, errors.New("mutation: short embedding record")
	}
	fpLen, inLen, dim := int(le.Uint32(p)), int(le.Uint32(p[4:])), int(le.Uint32(p[8:]))
	if fpLen > maxFingerprintLen || inLen > maxInputLen || dim > maxVectorDim || len(p) != 12+fpLen+inLen+4*dim {
		return Embedding{}, fmt.Errorf("mutation: embedding record of %d bytes says fingerprint %d, input %d, dim %d",
			len(p), fpLen, inLen, dim)
	}
	p = p[12:]
	e := Embedding{Fingerprint: string(p[:fpLen]), Input: string(p[fpLen : fpLen+inLen]), Vec: make([]float32, dim)}
	p = p[fpLen+inLen:]
	for i := range e.Vec {
		e.Vec[i] = math.Float32frombits(le.Uint32(p[4*i:]))
	}
	return e, nil
}

// scanFrames reads the frames of a size-byte log file from r, positioned
// just past its 8-byte magic, decoding each payload and passing the record
// to fn. It stops at the first frame that is torn, runs past size, fails
// its checksum or does not decode, and returns the offset just past the
// last good frame, how many there were, and what stopped it ("" at a
// clean end). An error from fn aborts the scan.
func scanFrames(r io.Reader, size int64, decode func([]byte) (Record, error), fn func(Record) error) (good, records int64, damage string, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	good = int64(len(walMagic))
	var hdr [8]byte
	var payload []byte
	for good < size {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return good, records, "torn record header", nil
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n == 0 || n > maxWalRecordLen {
			return good, records, fmt.Sprintf("implausible record length %d", n), nil
		}
		if good+8+n > size {
			return good, records, "torn record", nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, records, "torn record", nil
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return good, records, "checksum mismatch", nil
		}
		rec, derr := decode(payload)
		if derr != nil {
			return good, records, derr.Error(), nil
		}
		if err := fn(rec); err != nil {
			return good, records, "", err
		}
		good += 8 + n
		records++
	}
	return good, records, "", nil
}

// walFile is what the WAL uses of its *os.File (an interface so that
// tests can fail its writes).
type walFile interface {
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is the mutation write-ahead log: one file per data directory, magic
// header followed by length-prefixed CRC-framed records (appendFrame).
// Mutation appends fsync before returning — a mutation is acknowledged
// only once it would survive a crash. Embedding appends do not: they are
// fsynced by Sync (their writer calls it every few hundred records), by
// Rewrite and Close, and by the next mutation append.
type WAL struct {
	mu     sync.Mutex
	path   string
	f      walFile
	size   int64
	broken error // a failed append that could not be cut back off
	closed bool

	appended  int64 // mutation records appended this process
	replayed  int64 // mutation records recovered at open
	truncated int64 // torn-tail bytes discarded at open
}

// OpenWAL opens (creating if absent) the WAL at path and replays every
// intact record through fn in log order. A torn or corrupt tail — the
// signature of a crash mid-append — is truncated at the last intact
// record; every mutation record before it is, by the fsync-per-append
// contract, complete. Errors from fn abort the open.
func OpenWAL(path string, fn func(Record) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mutation: opening wal: %w", err)
	}
	w := &WAL{path: path, f: f}
	if err := w.recover(f, fn); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the log from the start, replaying intact records and
// truncating at the first damage.
func (w *WAL) recover(f *os.File, fn func(Record) error) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("mutation: stat wal: %w", err)
	}
	total := st.Size()
	if total < int64(len(walMagic)) {
		// Fresh (or header-torn) log: write the magic and start empty.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("mutation: truncating wal: %w", err)
		}
		if _, err := f.WriteAt(walMagic[:], 0); err != nil {
			return fmt.Errorf("mutation: writing wal header: %w", err)
		}
		w.size = int64(len(walMagic))
		if err := f.Sync(); err != nil {
			return fmt.Errorf("mutation: syncing wal: %w", err)
		}
		return nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != walMagic {
		return fmt.Errorf("mutation: %s is not a mutation WAL", w.path)
	}
	good, _, _, err := scanFrames(f, total, decodePayload, func(rec Record) error {
		if rec.Kind != KindEmbedding {
			w.replayed++
		}
		return fn(rec)
	})
	if err != nil {
		return err
	}
	if good < total {
		w.truncated = total - good
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("mutation: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("mutation: syncing wal: %w", err)
		}
	}
	w.size = good
	return nil
}

// Append logs one record. A mutation record is framed, CRC'd and fsynced
// (with every embedding record before it) on return: this is the
// write-ahead barrier, and callers apply the mutation in memory only
// after Append succeeds. An embedding record is fsynced later, by Sync or
// the next mutation.
func (w *WAL) Append(rec Record) error {
	buf, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("mutation: append to closed wal")
	}
	if w.broken != nil {
		return fmt.Errorf("mutation: wal refuses appends since a failed one could not be cut off: %w", w.broken)
	}
	sync := rec.Kind != KindEmbedding
	_, err = w.f.WriteAt(buf, w.size)
	if err == nil && sync {
		err = w.f.Sync()
	}
	if err != nil {
		// Cut the log back to its last whole record, so the next one does
		// not land behind bytes replay would stop at.
		if terr := w.f.Truncate(w.size); terr != nil {
			w.broken = terr
		}
		return fmt.Errorf("mutation: appending wal record: %w", err)
	}
	w.size += int64(len(buf))
	if sync {
		w.appended++
	}
	return nil
}

// Sync fsyncs the log, embedding records included. Appends do not wait
// for it: the fsync runs outside the WAL's lock.
func (w *WAL) Sync() error {
	w.mu.Lock()
	f, closed := w.f, w.closed
	w.mu.Unlock()
	if closed {
		return nil
	}
	// A file closed meanwhile was replaced by a fsynced rewrite or fsynced
	// by Close.
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("mutation: syncing wal: %w", err)
	}
	return nil
}

// Rewrite replaces the log with one holding exactly the records source
// emits. A checkpoint calls it once every mutation record is folded into
// the table files, to keep the embedding records alone; the caller must
// hold off mutation appends across checkpoint and Rewrite, or a record
// logged in between would be dropped unapplied. The new log is written
// to a temporary file, fsynced, renamed over the old one and its
// directory fsynced (durable.AtomicWriteFile), so a crash leaves one log
// or the other whole. Appends wait for it.
func (w *WAL) Rewrite(source func(emit func(Record) error) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("mutation: rewrite of closed wal")
	}
	size := int64(len(walMagic))
	err := durable.AtomicWriteFile(w.path, func(out io.Writer) error {
		bw := bufio.NewWriterSize(out, 1<<16)
		if _, err := bw.Write(walMagic[:]); err != nil {
			return err
		}
		var buf []byte
		err := source(func(rec Record) error {
			var err error
			if buf, err = appendFrame(buf[:0], rec); err != nil {
				return err
			}
			size += int64(len(buf))
			_, err = bw.Write(buf)
			return err
		})
		if err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return err // the old log is intact and still open
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0)
	if err != nil {
		// The descriptor left names the replaced file: appending to it
		// would log nothing.
		w.broken = err
		return fmt.Errorf("mutation: reopening rewritten wal: %w", err)
	}
	w.f.Close()
	w.f, w.size, w.broken = f, size, nil
	return nil
}

// ImportSegmentLog moves into the WAL the embedding segment log of an
// older data directory: dir's "seg-*.log" files, each the magic
// "EJSEG001" and then frames like the WAL's whose payload is an
// embedding record's body without its kind byte. Each intact record, up
// to a file's first damaged one, is passed to fn and appended, and the
// WAL is fsynced. It returns how many records it moved and one note per
// damaged file; the caller removes dir afterwards. A missing dir moves
// nothing.
func (w *WAL) ImportSegmentLog(dir string, fn func(Record) error) (int64, []string, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")) // ascending ids: names are zero-padded
	decode := func(p []byte) (Record, error) {
		e, err := decodeEmbedding(p)
		return Record{Kind: KindEmbedding, Emb: e}, err
	}
	move := func(rec Record) error {
		if err := fn(rec); err != nil {
			return err
		}
		return w.Append(rec)
	}
	var moved int64
	var notes []string
	for _, path := range paths {
		n, damage, err := scanSegment(path, decode, move)
		moved += n
		if err != nil {
			return moved, notes, err
		}
		if damage != "" {
			notes = append(notes, fmt.Sprintf("%s: %s after %d records", filepath.Base(path), damage, n))
		}
	}
	return moved, notes, w.Sync()
}

// scanSegment scans one segment-log file (see ImportSegmentLog).
func scanSegment(path string, decode func([]byte) (Record, error), fn func(Record) error) (records int64, damage string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", fmt.Errorf("mutation: opening %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, "", fmt.Errorf("mutation: stat %s: %w", path, err)
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != segMagic {
		return 0, "not a segment file", nil
	}
	_, records, damage, err = scanFrames(f, st.Size(), decode, fn)
	return records, damage, err
}

// Close fsyncs the log and releases the file. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	err := w.f.Sync()
	w.closed = true
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALStats reports the log's observability counters.
type WALStats struct {
	// SizeBytes is the current log size including the header.
	SizeBytes int64 `json:"size_bytes"`
	// AppendedRecords counts mutation records appended by this process
	// (embedding records are counted by their writer).
	AppendedRecords int64 `json:"appended_records"`
	// ReplayedRecords counts intact mutation records recovered at open
	// (embedding records are counted by whoever loads them).
	ReplayedRecords int64 `json:"replayed_records"`
	// TruncatedBytes counts torn-tail bytes discarded at open.
	TruncatedBytes int64 `json:"truncated_bytes"`
}

// Stats snapshots the counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		SizeBytes:       w.size,
		AppendedRecords: w.appended,
		ReplayedRecords: w.replayed,
		TruncatedBytes:  w.truncated,
	}
}
