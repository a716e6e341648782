package mutation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ejoin/internal/relational"
)

// embRecord builds a deterministic embedding record for index i.
func embRecord(i int) Record {
	rng := rand.New(rand.NewSource(int64(i)))
	v := make([]float32, 8)
	for d := range v {
		v[d] = rng.Float32()
	}
	return Record{Kind: KindEmbedding, Emb: Embedding{Fingerprint: "hash/8", Input: fmt.Sprintf("input-%04d", i), Vec: v}}
}

// replayWAL opens the WAL at path and returns every record it replays.
func replayWAL(t *testing.T, path string) ([]Record, *WAL) {
	t.Helper()
	var got []Record
	w, err := OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, w
}

// faultyFile fails the WAL's writes after writing half their bytes, and
// its truncates, while the flags are set.
type faultyFile struct {
	walFile
	shortWrites, failTruncate bool
}

func (f *faultyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.shortWrites {
		n, _ := f.walFile.WriteAt(p[:len(p)/2], off)
		return n, errors.New("injected short write")
	}
	return f.walFile.WriteAt(p, off)
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.walFile.Truncate(size)
}

// TestWALFailedAppendLeavesNoGarbage: an append whose write comes up
// short is cut back off the log, so the next, good append lands right
// after the last whole record and replay keeps it. If the cut fails too,
// the log refuses every later append rather than write behind the
// garbage.
func TestWALFailedAppendLeavesNoGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	good := Record{Kind: KindUpsert, Incarnation: 1, Gen: 1, Table: "items", KeyCol: "id", Batch: rowsTable(t, []int64{1}, []string{"a"})}
	if err := w.Append(embRecord(0)); err != nil {
		t.Fatal(err)
	}
	// The failed record is longer than the good one, so the good one's
	// write alone would not cover the torn bytes.
	big := Record{Kind: KindEmbedding, Emb: Embedding{Fingerprint: "hash/1024", Input: "big", Vec: make([]float32, 1024)}}
	ff := &faultyFile{walFile: w.f, shortWrites: true}
	w.f = ff
	if err := w.Append(big); err == nil {
		t.Fatal("short write reported no error")
	}
	ff.shortWrites = false
	if err := w.Append(good); err != nil {
		t.Fatalf("append after a cut-back failure: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, w2 := replayWAL(t, path)
	if len(got) != 2 || !reflect.DeepEqual(got[0], embRecord(0)) || got[1].Kind != KindUpsert || got[1].Gen != 1 {
		t.Fatalf("replayed %+v, want the first embedding record and the good upsert", got)
	}
	if st := w2.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("replay cut %d bytes: the failed append left garbage", st.TruncatedBytes)
	}

	// A failed write whose cut fails too leaves the log refusing appends.
	w2.f = &faultyFile{walFile: w2.f, shortWrites: true, failTruncate: true}
	if err := w2.Append(good); err == nil {
		t.Fatal("short write reported no error")
	}
	w2.f.(*faultyFile).shortWrites = false
	if err := w2.Append(embRecord(2)); err == nil || !strings.Contains(err.Error(), "refuses") {
		t.Fatalf("append behind an uncut failure: %v, want a refusal", err)
	}
	w2.Close()
}

// appendEmbs appends embedding records lo..hi-1 to w.
func appendEmbs(t *testing.T, w *WAL, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := w.Append(embRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALEmbeddingRoundTrip: a log of embedding records alone replays
// every one, byte-for-byte and in order, and a clean reopen cuts nothing.
func TestWALEmbeddingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, func(Record) error { t.Fatal("fresh wal replayed records"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	appendEmbs(t, w, 0, n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, w2 := replayWAL(t, path)
	defer w2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, embRecord(i)) {
			t.Fatalf("record %d round-trip mismatch: %+v", i, r)
		}
	}
	if st := w2.Stats(); st.TruncatedBytes != 0 || st.ReplayedRecords != 0 {
		t.Fatalf("clean embedding-only log reopened with %+v", st)
	}
}

// TestWALEmbeddingTornTailTruncatedOnRecovery: a crash mid-append of an
// embedding record loses that record only; reopening cuts the torn bytes,
// reports them, and later appends replay right after the intact prefix.
func TestWALEmbeddingTornTailTruncatedOnRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	appendEmbs(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	got, w2 := replayWAL(t, path)
	if len(got) != 19 {
		t.Fatalf("replayed %d records after torn tail, want 19", len(got))
	}
	if st := w2.Stats(); st.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", st)
	}

	appendEmbs(t, w2, 100, 105)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, w3 := replayWAL(t, path)
	defer w3.Close()
	if len(got) != 24 {
		t.Fatalf("replayed %d after append-over-truncation, want 24", len(got))
	}
	if !reflect.DeepEqual(got[19], embRecord(100)) {
		t.Fatal("first post-truncation append not replayed in order")
	}
	if st := w3.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("log cut again after append-over-truncation: %+v", st)
	}
}

// TestWALRewrite: a rewrite leaves exactly the records its source emits,
// appends after it land behind them, and a failing source leaves the old
// log in place and appendable.
func TestWALRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(embRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	err = w.Rewrite(func(emit func(Record) error) error {
		for i := 0; i < 20; i += 2 {
			if err := emit(embRecord(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(embRecord(100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Rewrite(func(func(Record) error) error { return errors.New("source failed") }); err == nil {
		t.Fatal("failed source reported no error")
	}
	if err := w.Append(embRecord(101)); err != nil {
		t.Fatal(err)
	}
	size := w.Stats().SizeBytes
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, w2 := replayWAL(t, path)
	defer w2.Close()
	var want []Record
	for i := 0; i < 20; i += 2 {
		want = append(want, embRecord(i))
	}
	want = append(want, embRecord(100), embRecord(101))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records after rewrites, want %d", len(got), len(want))
	}
	if st := w2.Stats(); st.SizeBytes != size || st.TruncatedBytes != 0 {
		t.Fatalf("reopened log %+v, want %d bytes and nothing cut", st, size)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("rewrites left %d files, want the log alone", len(entries))
	}
}

// segmentFile is the image of one segment-log file holding records.
func segmentFile(recs []Record) []byte {
	out := append([]byte(nil), segMagic[:]...)
	for _, r := range recs {
		frame, _ := appendFrame(nil, r)
		// A segment record is a WAL frame without the kind byte.
		p := frame[9:]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, crcTable))
		out = append(out, p...)
	}
	return out
}

// TestWALImportSegmentLog: the segment files of an older data directory
// move into the WAL in id order; a file damaged mid-way moves the records
// before the damage and notes it, and the files after it still move.
func TestWALImportSegmentLog(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "emb")
	if err := os.Mkdir(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 30; i++ {
		recs = append(recs, embRecord(i))
	}
	damaged := segmentFile(recs[10:20])
	damaged[len(damaged)/2] ^= 0xff
	for name, data := range map[string][]byte{
		"seg-0000000002.log": damaged,
		"seg-0000000001.log": segmentFile(recs[:10]),
		"seg-0000000010.log": segmentFile(recs[20:]),
		"notes.txt":          []byte("not a segment"),
	} {
		if err := os.WriteFile(filepath.Join(seg, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var passed []Record
	moved, notes, err := w.ImportSegmentLog(seg, func(r Record) error { passed = append(passed, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || !strings.HasPrefix(notes[0], "seg-0000000002.log: ") {
		t.Fatalf("notes %q, want one for the damaged segment", notes)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, w2 := replayWAL(t, path)
	defer w2.Close()
	if int64(len(got)) != moved || !reflect.DeepEqual(got, passed) {
		t.Fatalf("WAL holds %d records, import moved %d and passed %d", len(got), moved, len(passed))
	}
	// All of segment 1, a prefix of segment 2, all of segment 10.
	n2 := len(got) - 20
	if n2 < 0 || n2 >= 10 || !reflect.DeepEqual(got[:10+n2], recs[:10+n2]) || !reflect.DeepEqual(got[10+n2:], recs[20:]) {
		t.Fatalf("imported %d records, not segment 1, a prefix of segment 2 and segment 10", len(got))
	}
	if moved, notes, err := w2.ImportSegmentLog(filepath.Join(dir, "absent"), nil); moved != 0 || notes != nil || err != nil {
		t.Fatalf("missing directory: moved %d, notes %q, err %v", moved, notes, err)
	}
}

// FuzzWAL holds the EJWAL001 decoder to arbitrary bytes: opening a log
// never panics, replay stops at the first damaged record and cuts the
// file there, and every record it accepts re-encodes to exactly the
// frame it was read from. Each input is also checked with its frames'
// checksums recomputed, so the fuzzer gets past them to the payloads.
func FuzzWAL(f *testing.F) {
	b := deleteBatch([]string{"1"})
	every, err := relational.NewTable(
		relational.Schema{{Name: "id", Type: relational.Int64}, {Name: "f", Type: relational.Float64},
			{Name: "s", Type: relational.String}, {Name: "t", Type: relational.Time}, {Name: "b", Type: relational.Bool}},
		[]relational.Column{relational.Int64Column{1, -2}, relational.Float64Column{0.5, -1e300},
			relational.StringColumn{"a", ""}, relational.TimeColumn{time.Unix(1, 999999999).UTC(), time.Unix(-5, 0).UTC()},
			relational.BoolColumn{true, false}},
	)
	if err != nil {
		f.Fatal(err)
	}
	log := append([]byte(nil), walMagic[:]...)
	for _, r := range []Record{
		embRecord(0),
		{Kind: KindUpsert, Incarnation: 7, Gen: 1, Table: "items", KeyCol: "id", Batch: every},
		embRecord(1),
		{Kind: KindDelete, Incarnation: 7, Gen: 2, Table: "items", KeyCol: "key", Batch: b},
	} {
		log, _ = appendFrame(log, r)
	}
	f.Add(log)
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add(walMagic[:])

	path := filepath.Join(f.TempDir(), "wal.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWALImage(t, path, data)
		fixed := append([]byte(nil), data...)
		le := binary.LittleEndian
		for off := len(walMagic); off+8 <= len(fixed); {
			n := int(le.Uint32(fixed[off:]))
			if n > len(fixed)-off-8 {
				break
			}
			le.PutUint32(fixed[off+4:], crc32.Checksum(fixed[off+8:off+8+n], crcTable))
			off += 8 + n
		}
		checkWALImage(t, path, fixed)
	})
}

// checkWALImage opens data as a WAL at path and checks FuzzWAL's
// properties.
func checkWALImage(t *testing.T, path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Record
	w, err := OpenWAL(path, func(r Record) error { got = append(got, r); return nil })
	if err != nil {
		if len(data) >= len(walMagic) && bytes.Equal(data[:len(walMagic)], walMagic[:]) {
			t.Fatalf("a log with the WAL magic failed to open: %v", err)
		}
		return
	}
	w.Close()
	if len(data) < len(walMagic) {
		return // a header-torn log starts over empty
	}
	off := len(walMagic)
	for i, r := range got {
		frame, err := appendFrame(nil, r)
		if err != nil || !bytes.HasPrefix(data[off:], frame) {
			t.Fatalf("record %d (%+v) does not re-encode to the frame it was read from", i, r)
		}
		off += len(frame)
	}
	// Whatever follows the accepted records is damage: not a whole frame,
	// a checksum mismatch, or a payload that does not decode.
	if rest := data[off:]; len(rest) >= 8 {
		n := int(binary.LittleEndian.Uint32(rest))
		if n > 0 && n <= len(rest)-8 && crc32.Checksum(rest[8:8+n], crcTable) == binary.LittleEndian.Uint32(rest[4:]) {
			if _, err := decodePayload(rest[8 : 8+n]); err == nil {
				t.Fatalf("replay stopped at offset %d before an intact record", off)
			}
		}
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != int64(off) {
		t.Fatalf("log cut to %d bytes, want %d", st.Size(), off)
	}
}
