// Package mutation is the live-update subsystem: a write-ahead log in
// front of the durable layer, row-level upsert/delete with per-table
// monotonically increasing generations, and MVCC read snapshots.
//
// The paper's pipeline treats relations as static inputs: ingest, embed,
// index, join. Real context-enhanced workloads churn — documents are
// corrected, products retired, rows re-scored — and re-ingesting a table
// to change one row forfeits exactly the amortization the embedding cache
// and the maintained indexes buy. This package
// makes row-level change first-class while preserving those wins:
//
//   - every mutation is appended to a checksummed WAL (fsync per append)
//     before it is applied, so a crash replays the tail instead of losing
//     acknowledged writes — and replay re-reads vectors from the batch
//     payload, costing zero model calls;
//   - each table's state is an immutable Version (table + live bitmap +
//     generation); queries pin the current version and never block on, or
//     observe, a half-applied batch — writers publish a new version with
//     one atomic pointer swap (copy-on-write, linear version chain);
//   - deletes tombstone rows rather than compacting them, keeping row ids
//     stable for the vector indexes; searches mask tombstones with the
//     version's live bitmap, and the IVF family re-clusters its coarse
//     quantizer in the background once the deleted fraction warrants.
//
// Checkpointing folds the current versions into the durable layer's table
// files (plus a tombstone sidecar per table) and truncates the WAL; boot
// replays only the records newer than the last checkpoint, gated by each
// table's incarnation id so records from a dropped table can never leak
// into a same-name successor.
package mutation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"ejoin/internal/durable"
	"ejoin/internal/relational"
)

// walMagic heads the mutation WAL file.
var walMagic = [8]byte{'E', 'J', 'W', 'A', 'L', '0', '0', '1'}

// crcTable is the Castagnoli polynomial, matching the durable formats.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxWalRecordLen bounds a single record payload (1 GiB), so a corrupt
// length field cannot drive a huge allocation during recovery.
const maxWalRecordLen = 1 << 30

// RecordKind discriminates WAL record payloads.
type RecordKind uint8

const (
	// KindUpsert carries a batch of full rows to insert-or-replace.
	KindUpsert RecordKind = 1
	// KindDelete carries key strings whose live rows are tombstoned.
	KindDelete RecordKind = 2
)

// Record is one logged mutation. For KindUpsert, Batch is the row batch
// itself (schema matching the target table). For KindDelete, Batch is a
// single-column String table named "key" holding the deleted keys in
// canonical form (see KeyString).
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
}

// encodePayload serializes a record body (everything the CRC covers).
//
//	u8  kind
//	u64 incarnation
//	u64 gen
//	u16 len(table) | table bytes
//	u16 len(keyCol) | keyCol bytes
//	table-file encoding of Batch (self-framing, CRC of its own)
func encodePayload(rec Record) ([]byte, error) {
	if rec.Kind != KindUpsert && rec.Kind != KindDelete {
		return nil, fmt.Errorf("mutation: unknown record kind %d", rec.Kind)
	}
	if len(rec.Table) > 1<<16-1 || len(rec.KeyCol) > 1<<16-1 {
		return nil, errors.New("mutation: table or key column name too long")
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(rec.Kind))
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], rec.Incarnation)
	buf.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], rec.Gen)
	buf.Write(u64[:])
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(rec.Table)))
	buf.Write(u16[:])
	buf.WriteString(rec.Table)
	binary.LittleEndian.PutUint16(u16[:], uint16(len(rec.KeyCol)))
	buf.Write(u16[:])
	buf.WriteString(rec.KeyCol)
	if err := durable.WriteTable(&buf, rec.Batch); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePayload parses a record body produced by encodePayload.
func decodePayload(p []byte) (Record, error) {
	var rec Record
	r := bytes.NewReader(p)
	kind, err := r.ReadByte()
	if err != nil {
		return rec, fmt.Errorf("mutation: short record: %w", err)
	}
	rec.Kind = RecordKind(kind)
	if rec.Kind != KindUpsert && rec.Kind != KindDelete {
		return rec, fmt.Errorf("mutation: unknown record kind %d", kind)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return rec, fmt.Errorf("mutation: short record: %w", err)
	}
	rec.Incarnation = binary.LittleEndian.Uint64(u64[:])
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return rec, fmt.Errorf("mutation: short record: %w", err)
	}
	rec.Gen = binary.LittleEndian.Uint64(u64[:])
	readStr := func() (string, error) {
		var u16 [2]byte
		if _, err := io.ReadFull(r, u16[:]); err != nil {
			return "", err
		}
		b := make([]byte, binary.LittleEndian.Uint16(u16[:]))
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	if rec.Table, err = readStr(); err != nil {
		return rec, fmt.Errorf("mutation: short record: %w", err)
	}
	if rec.KeyCol, err = readStr(); err != nil {
		return rec, fmt.Errorf("mutation: short record: %w", err)
	}
	if rec.Batch, err = durable.ReadTable(r); err != nil {
		return rec, fmt.Errorf("mutation: record batch: %w", err)
	}
	return rec, nil
}

// WAL is the mutation write-ahead log: one file per data directory, magic
// header followed by length-prefixed CRC-framed records. Appends fsync
// before returning — a mutation is acknowledged only once it would survive
// a crash. Framing per record:
//
//	u32 len(payload) | u32 crc32c(payload) | payload
type WAL struct {
	mu   sync.Mutex
	path string
	f    *os.File
	size int64

	appended  int64 // records appended this process
	replayed  int64 // records recovered at open
	truncated int64 // torn-tail bytes discarded at open
}

// OpenWAL opens (creating if absent) the WAL at path and replays every
// intact record through fn in log order. A torn or corrupt tail — the
// signature of a crash mid-append — is truncated at the last intact
// record; everything before it is, by the fsync-per-append contract,
// complete. Errors from fn abort the open.
func OpenWAL(path string, fn func(Record) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mutation: opening wal: %w", err)
	}
	w := &WAL{path: path, f: f}
	if err := w.recover(fn); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the log from the start, replaying intact records and
// truncating at the first damage.
func (w *WAL) recover(fn func(Record) error) error {
	st, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("mutation: stat wal: %w", err)
	}
	total := st.Size()
	if total < int64(len(walMagic)) {
		// Fresh (or header-torn) log: write the magic and start empty.
		return w.resetLocked()
	}
	var magic [8]byte
	if _, err := io.ReadFull(w.f, magic[:]); err != nil || magic != walMagic {
		return fmt.Errorf("mutation: %s is not a mutation WAL", w.path)
	}
	good := int64(len(walMagic))
	var hdr [8]byte
	for good < total {
		if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxWalRecordLen || good+8+int64(n) > total {
			break // absurd or beyond-EOF length: torn or corrupt
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(w.f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break // flipped bytes
		}
		rec, err := decodePayload(payload)
		if err != nil {
			break // framed correctly but undecodable: treat as damage
		}
		if err := fn(rec); err != nil {
			return err
		}
		good += 8 + int64(n)
		w.replayed++
	}
	if good < total {
		w.truncated = total - good
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("mutation: truncating torn wal tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("mutation: syncing wal: %w", err)
		}
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("mutation: seeking wal: %w", err)
	}
	w.size = good
	return nil
}

// Append durably logs one record: on return it is framed, CRC'd, and
// fsynced. This is the write-ahead barrier — callers apply the mutation
// in memory only after Append succeeds.
func (w *WAL) Append(rec Record) error {
	payload, err := encodePayload(rec)
	if err != nil {
		return err
	}
	if len(payload) > maxWalRecordLen {
		return fmt.Errorf("mutation: record of %d bytes exceeds wal limit", len(payload))
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("mutation: appending wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("mutation: syncing wal: %w", err)
	}
	w.size += int64(len(buf))
	w.appended++
	return nil
}

// Reset truncates the log back to its header. Called after a checkpoint
// has folded every logged mutation into the durable table files — the
// caller must hold off concurrent Appends across checkpoint+Reset, or
// records logged in between would be discarded unapplied.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resetLocked()
}

func (w *WAL) resetLocked() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("mutation: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("mutation: seeking wal: %w", err)
	}
	if _, err := w.f.Write(walMagic[:]); err != nil {
		return fmt.Errorf("mutation: writing wal header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("mutation: syncing wal: %w", err)
	}
	w.size = int64(len(walMagic))
	return nil
}

// Close releases the file handle.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// WALStats reports the log's observability counters.
type WALStats struct {
	// SizeBytes is the current log size including the header.
	SizeBytes int64 `json:"size_bytes"`
	// AppendedRecords counts records appended by this process.
	AppendedRecords int64 `json:"appended_records"`
	// ReplayedRecords counts intact records recovered at open.
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
