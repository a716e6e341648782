package embstore

import (
	"context"
	"fmt"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/model"
)

// lineageTexts is a column of n distinct rows.
func lineageTexts(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s row %d", prefix, i)
	}
	return out
}

// readColumn fetches every chunk of a lineage's column in full and checks
// each row against the model, returning the summed statistics.
func readColumn(t *testing.T, s *Store, m *model.CountingModel, key ChunkKey, texts []string) BatchStats {
	t.Helper()
	var sum BatchStats
	for key.Index = 0; key.Index*ChunkRows < len(texts); key.Index++ {
		lo := key.Index * ChunkRows
		rows := texts[lo:min(lo+ChunkRows, len(texts))]
		all := PrefixMask(len(rows))
		ch, bs, err := s.Chunk(context.Background(), m, key, rows, all, all, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range rows {
			if !vecsEqual(ch.Row(i), normalized(t, m.Inner, text)) {
				t.Fatalf("lineage %d row %d differs from the model's vector", key.Incarnation, lo+i)
			}
		}
		ch.Release()
		sum.ModelCalls += bs.ModelCalls
		sum.Restored += bs.Restored
		sum.Hits += bs.Hits
	}
	return sum
}

// Carry moves a compacted column into its new lineage with no model call,
// from resident chunks and spilled ones alike; the per-text references to
// the kept rows move with them, so dropping the old lineage leaves every
// kept text findable without the model.
func TestCarryFillsNewLineageWithoutModel(t *testing.T) {
	for _, budget := range []string{"unbounded", "one chunk"} {
		t.Run(budget, func(t *testing.T) {
			m := model.NewCountingModel(testModel(t, 16))
			var cfg Config
			if budget == "one chunk" {
				one := &entry{c: &Chunk{key: ChunkKey{Fingerprint: Fingerprint(m), Column: "name"}, vecs: mat.New(ChunkRows, 16)}}
				cfg.MaxBytes = one.size() * 3 / 2
			}
			s := New(cfg)
			defer s.Close()
			old := lineageTexts("old", 3*ChunkRows+10)
			from := ChunkKey{Fingerprint: Fingerprint(m), Incarnation: 9, Column: "name"}
			readColumn(t, s, m, from, old)
			if budget == "one chunk" && s.Stats().Spilled == 0 {
				t.Fatal("the old lineage never spilled")
			}

			var kept []int
			var texts []string
			for i := range old {
				if i%3 != 1 {
					kept = append(kept, i)
					texts = append(texts, old[i])
				}
			}
			m.Reset()
			if n := s.Carry(from, 10, m.Dim(), kept, texts); n != len(kept) {
				t.Fatalf("carried %d rows, want %d", n, len(kept))
			}
			s.DropLineage(from.Fingerprint, from.Incarnation, map[string][]string{"name": old})
			to := from
			to.Incarnation = 10
			if bs := readColumn(t, s, m, to, texts); bs.ModelCalls != 0 || m.Calls() != 0 {
				t.Fatalf("reading the carried lineage: %+v, %d model calls", bs, m.Calls())
			}
			s.spill.mu.Lock()
			for k := range s.spill.slots {
				if k.Incarnation == from.Incarnation {
					t.Errorf("the dropped lineage still holds slot %+v", k)
				}
			}
			s.spill.mu.Unlock()
			if budget == "unbounded" {
				for _, text := range texts {
					if _, err := s.Get(context.Background(), m, text); err != nil {
						t.Fatal(err)
					}
				}
				if m.Calls() != 0 {
					t.Fatalf("%d model calls looking up carried texts: their references did not move", m.Calls())
				}
			}
		})
	}
}

// A reader pinned to a lineage across its drop rebuilds what it needs, but
// the chunk is its alone: not resident, never spilled. Over a loop of
// compactions with such a reader the spill file holds no more slots than
// the live lineage has chunks.
func TestDroppedLineageStaysDropped(t *testing.T) {
	m := model.NewCountingModel(testModel(t, 16))
	one := &entry{c: &Chunk{key: ChunkKey{Fingerprint: Fingerprint(m), Column: "name"}, vecs: mat.New(ChunkRows, 16)}}
	s := New(Config{MaxBytes: one.size() * 3 / 2})
	defer s.Close()
	const chunks = 2
	texts := lineageTexts("loop", chunks*ChunkRows)
	key := ChunkKey{Fingerprint: Fingerprint(m), Incarnation: 100, Column: "name"}
	readColumn(t, s, m, key, texts)
	kept := make([]int, len(texts))
	for i := range kept {
		kept[i] = i
	}
	all := PrefixMask(ChunkRows)
	for round := 0; round < 6; round++ {
		prev := key
		key.Incarnation++
		s.Carry(prev, key.Incarnation, m.Dim(), kept, texts)
		s.DropLineage(prev.Fingerprint, prev.Incarnation, map[string][]string{"name": texts})

		// The pinned reader rebuilds its chunk of the dropped lineage and
		// holds it while the live lineage cycles through the store.
		prev.Index = round % chunks
		lo := prev.Index * ChunkRows
		held, _, err := s.Chunk(context.Background(), m, prev, texts[lo:lo+ChunkRows], all, all, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := s.PeekChunk(prev); ok {
			c.Release()
			t.Fatalf("round %d: the dropped lineage's rebuilt chunk is resident", round)
		}
		readColumn(t, s, m, key, texts)
		readColumn(t, s, m, key, texts)
		for i, text := range texts[lo : lo+ChunkRows] {
			if !vecsEqual(held.Row(i), normalized(t, m.Inner, text)) {
				t.Fatalf("round %d: the pinned reader's row %d changed", round, i)
			}
		}
		held.Release()
		readColumn(t, s, m, key, texts)

		s.spill.mu.Lock()
		used := len(s.spill.slots)
		_, stale := s.spill.slots[prev]
		s.spill.mu.Unlock()
		if stale || used > chunks {
			t.Fatalf("round %d: %d spill slots (the dropped lineage's: %v), live chunks %d", round, used, stale, chunks)
		}
	}
	if st := s.Stats(); st.Spilled == 0 {
		t.Fatalf("stats %+v: the loop never spilled", st)
	}
}
