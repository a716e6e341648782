package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// testRecord builds a deterministic record for index i.
func testRecord(i int) Record {
	rng := rand.New(rand.NewSource(int64(i)))
	vec := make([]float32, 8)
	for d := range vec {
		vec[d] = rng.Float32()
	}
	return Record{
		Fingerprint: "hash/100",
		Input:       fmt.Sprintf("input-%04d", i),
		Vec:         vec,
	}
}

func recordsEqual(a, b Record) bool {
	if a.Fingerprint != b.Fingerprint || a.Input != b.Input || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}

func appendN(t *testing.T, l *Log, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, dir string, cfg LogConfig) ([]Record, *Log) {
	t.Helper()
	var got []Record
	l, err := OpenLog(dir, cfg, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, l
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	appendN(t, l, 0, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, LogConfig{})
	defer l2.Close()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if !recordsEqual(r, testRecord(i)) {
			t.Fatalf("record %d round-trip mismatch: %+v", i, r)
		}
	}
	if rec := l2.Stats().Recovery; rec.TruncatedBytes != 0 || rec.SkippedSegments != 0 {
		t.Errorf("clean log recovered with damage report: %+v", rec)
	}
}

func TestLogRotationAndAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation.
	cfg := LogConfig{SegmentBytes: 512}
	l, err := OpenLog(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("expected rotation to create multiple segments, got %d", len(ids))
	}

	// Reopen, append more, replay everything.
	got, l2 := replayAll(t, dir, cfg)
	if len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
	appendN(t, l2, 50, 80)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, l3 := replayAll(t, dir, cfg)
	defer l3.Close()
	if len(got) != 80 {
		t.Fatalf("replayed %d after reopen-append, want 80", len(got))
	}
	for i, r := range got {
		if !recordsEqual(r, testRecord(i)) {
			t.Fatalf("record %d mismatch after reopen", i)
		}
	}
}

// lastSegmentPath returns the highest-id segment file.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil || len(ids) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return filepath.Join(dir, segName(ids[len(ids)-1]))
}

func TestLogTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the tail.
	path := lastSegmentPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, LogConfig{})
	if len(got) != 19 {
		t.Fatalf("replayed %d records after torn tail, want 19", len(got))
	}
	rec := l2.Stats().Recovery
	if rec.TruncatedBytes == 0 || len(rec.Reasons) == 0 {
		t.Errorf("torn tail not reported: %+v", rec)
	}

	// The log must be cleanly appendable after truncation.
	appendN(t, l2, 100, 105)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, l3 := replayAll(t, dir, LogConfig{})
	defer l3.Close()
	if len(got) != 24 {
		t.Fatalf("replayed %d after append-over-truncation, want 24", len(got))
	}
	if !recordsEqual(got[19], testRecord(100)) {
		t.Error("first post-truncation append not replayed in order")
	}
}

func TestLogFlippedByteStopsSegmentNotStartup(t *testing.T) {
	dir := t.TempDir()
	cfg := LogConfig{SegmentBytes: 512}
	l, err := OpenLog(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 60) // several segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(ids))
	}

	// Flip one byte in the middle of the FIRST (sealed) segment.
	first := filepath.Join(dir, segName(ids[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, cfg)
	defer l2.Close()
	rec := l2.Stats().Recovery
	if rec.SkippedSegments != 1 {
		t.Errorf("skipped segments = %d, want 1 (%+v)", rec.SkippedSegments, rec)
	}
	// Some records from the corrupt segment's valid prefix plus all later
	// segments replay; crucially, no record is garbage and nothing crashed.
	if len(got) == 0 || len(got) >= 60 {
		t.Fatalf("replayed %d records from corrupted log, want partial recovery", len(got))
	}
	seen := map[string]bool{}
	for _, r := range got {
		if !recordsEqual(r, testRecord(atoiSuffix(t, r.Input))) {
			t.Fatalf("corrupted replay surfaced a damaged record: %+v", r)
		}
		seen[r.Input] = true
	}
	// Later (undamaged) segments fully replay: the last appended record
	// survives.
	if !seen["input-0059"] {
		t.Error("records from segments after the corrupt one were lost")
	}
}

func atoiSuffix(t *testing.T, input string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(input, "input-%d", &i); err != nil {
		t.Fatalf("unexpected input %q", input)
	}
	return i
}

func TestLogCompact(t *testing.T) {
	dir := t.TempDir()
	cfg := LogConfig{SegmentBytes: 512}
	l, err := OpenLog(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)

	// Compact down to 10 live records (as the store's Range would emit).
	removed, err := l.Compact(func(emit func(Record) error) error {
		for i := 0; i < 10; i++ {
			if err := emit(testRecord(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("compaction removed no segments")
	}
	// Appends continue after compaction.
	appendN(t, l, 200, 203)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, cfg)
	defer l2.Close()
	if len(got) != 13 {
		t.Fatalf("replayed %d after compaction, want 13", len(got))
	}
	for i := 0; i < 10; i++ {
		if !recordsEqual(got[i], testRecord(i)) {
			t.Fatalf("compacted record %d mismatch", i)
		}
	}
	if !recordsEqual(got[10], testRecord(200)) {
		t.Error("post-compaction append lost")
	}
}

func TestSanitizeName(t *testing.T) {
	plain := sanitizeName("orders_2024")
	if plain != "orders_2024" {
		t.Errorf("safe name mangled: %q", plain)
	}
	dotty := sanitizeName("../../etc/passwd")
	if dotty == "../../etc/passwd" || filepath.Base(dotty) != dotty {
		t.Errorf("unsafe name not contained: %q", dotty)
	}
	if sanitizeName("a/b") == sanitizeName("a.b") {
		t.Error("distinct unsafe names collide")
	}
}

func TestLogCorruptActiveMagicDoesNotEatNewAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, LogConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the active segment's magic header: its contents are lost,
	// but recovery must start a FRESH segment rather than appending
	// records into a header-less file the next boot would discard.
	path := lastSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, l2 := replayAll(t, dir, LogConfig{})
	if len(got) != 0 {
		t.Fatalf("replayed %d records from a magic-corrupt segment, want 0", len(got))
	}
	appendN(t, l2, 10, 15)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	got, l3 := replayAll(t, dir, LogConfig{})
	defer l3.Close()
	if len(got) != 5 {
		t.Fatalf("post-corruption appends: replayed %d, want 5", len(got))
	}
	for i, r := range got {
		if !recordsEqual(r, testRecord(10+i)) {
			t.Fatalf("record %d mismatch after magic-corruption recovery", i)
		}
	}
}
