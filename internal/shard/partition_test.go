package shard

import (
	"reflect"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/workload"
)

func stringTable(t *testing.T, words []string) *relational.Table {
	t.Helper()
	var ws relational.StringColumn
	var ns relational.Int64Column
	for i, w := range words {
		ws = append(ws, w)
		ns = append(ns, int64(i))
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}},
		[]relational.Column{ws, ns})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func intTable(t *testing.T, n int) *relational.Table {
	t.Helper()
	var a, b relational.Int64Column
	for i := 0; i < n; i++ {
		a = append(a, int64(i))
		b = append(b, int64(i*i))
	}
	tbl, err := relational.NewTable(
		relational.Schema{{Name: "a", Type: relational.Int64}, {Name: "b", Type: relational.Int64}},
		[]relational.Column{a, b})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestHashPartitionerDeterministicSpread(t *testing.T) {
	tbl := stringTable(t, workload.Strings(3, 128, nil))
	first, err := owners(tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := owners(tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i, s := range first {
		if s < 0 || s >= 4 {
			t.Fatalf("row %d assigned to shard %d, want [0,4)", i, s)
		}
		if s != again[i] {
			t.Fatalf("row %d owner changed across calls: %d then %d", i, s, again[i])
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d received no rows from a 128-row hash partition", s)
		}
	}
	// Content-addressed: the same key hashes identically in a different
	// batch (upsert routing must agree with ingest routing).
	sub := stringTable(t, []string{tbl.ColumnAt(0).(relational.StringColumn)[5]})
	subOwner, err := owners(sub, 4)
	if err != nil {
		t.Fatal(err)
	}
	if subOwner[0] != first[5] {
		t.Errorf("key routed to shard %d at ingest but %d in a later batch", first[5], subOwner[0])
	}
}

// TestOwnersPinned pins placement to the shards it has always chosen: a
// durable deployment's rows stay where earlier builds put them, so any
// change to the hash, the key rendering or the modulus is a format break.
func TestOwnersPinned(t *testing.T) {
	words := stringTable(t, workload.Strings(3, 24, nil))
	ints := intTable(t, 24)
	for _, c := range []struct {
		shards      int
		words, ints []int
	}{
		{2, []int{1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1},
			[]int{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0}},
		{3, []int{0, 2, 0, 1, 1, 2, 0, 1, 1, 1, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 1, 1, 2, 1},
			[]int{2, 1, 1, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 0, 1, 2, 0, 2, 0, 2, 1, 1, 0}},
		{4, []int{3, 0, 2, 2, 0, 3, 3, 1, 2, 3, 2, 1, 3, 0, 2, 3, 2, 2, 2, 0, 3, 1, 0, 1},
			[]int{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 3, 0, 1, 2}},
	} {
		for _, tc := range []struct {
			tbl  *relational.Table
			want []int
		}{{words, c.words}, {ints, c.ints}} {
			got, err := owners(tc.tbl, c.shards)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%d shards, column %q: owners %v, want %v", c.shards, tc.tbl.Schema()[0].Name, got, tc.want)
			}
		}
	}
}

// TestOpenPartitionerNames: "" and "hash" name the one placement; any
// other name, the retired "centroid" included, is refused.
func TestOpenPartitionerNames(t *testing.T) {
	m, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "hash", "centroid", "HASH"} {
		r, err := Open(Config{Shards: 2, Partitioner: name, Engine: service.Config{Model: m}})
		if ok := name == "" || name == "hash"; ok != (err == nil) {
			t.Errorf("partitioner %q: error %v", name, err)
		}
		if err == nil {
			if got := r.Stats().Partitioner; got != "hash" {
				t.Errorf("partitioner %q: /stats says %q, want hash", name, got)
			}
			r.Close()
		}
	}
}
