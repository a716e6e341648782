package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/vec"
)

// legacyLayout writes the data directory a router with the retired
// centroid placement left behind: each table's rows sit on the shard
// whose seed row (rows 0, n/k, 2n/k, ... of its first text column) they
// embed closest to, not where hash placement would put them, and
// SHARDS.json names "partitioner":"centroid" and carries the seeds as
// "centroids", in the format such routers wrote. It stands in for the
// router at ingest; close writes the manifest.
type legacyLayout struct {
	t      *testing.T
	dir    string
	model  model.Model
	shards []*service.Engine
	tables map[string]any
	// moved counts the rows placed on another shard than hash placement's.
	moved int
}

func newLegacyLayout(t *testing.T, cfg service.Config, shards int) *legacyLayout {
	t.Helper()
	res, err := service.Resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &legacyLayout{t: t, dir: cfg.DataDir, model: res.Config.Model, tables: map[string]any{}}
	for s := 0; s < shards; s++ {
		scfg := res.Config
		scfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%02d", s))
		eng, err := service.OpenShard(scfg)
		if err != nil {
			t.Fatal(err)
		}
		l.shards = append(l.shards, eng)
	}
	return l
}

func (l *legacyLayout) RegisterCSV(name string, schema relational.Schema, rd io.Reader, _ bool) (int, error) {
	tbl, err := relational.ReadCSV(rd, schema)
	if err != nil {
		return 0, err
	}
	n, k := tbl.NumRows(), len(l.shards)
	var texts relational.StringColumn
	for i, f := range schema {
		if f.Type == relational.String {
			texts = tbl.ColumnAt(i).(relational.StringColumn)
			break
		}
	}
	embed := func(s string) []float32 {
		e, err := l.model.Embed(s)
		if err != nil {
			l.t.Fatal(err)
		}
		v := make([]float32, len(e))
		vec.NormalizeInto(v, e)
		return v
	}
	var seeds [][]float32
	for c := 0; texts != nil && c < k; c++ {
		seeds = append(seeds, embed(texts[c*n/k]))
	}
	hashed, err := owners(tbl, k)
	if err != nil {
		return 0, err
	}
	rowmaps := make([][]int, k)
	for i := 0; i < n; i++ {
		s := i % k
		if seeds != nil {
			v, best := embed(texts[i]), float32(-2)
			for c, seed := range seeds {
				if d := vec.Dot(vec.KernelScalar, seed, v); d > best {
					s, best = c, d
				}
			}
		}
		rowmaps[s] = append(rowmaps[s], i)
		if s != hashed[i] {
			l.moved++
		}
	}
	for s, eng := range l.shards {
		part, err := tbl.Select(rowmaps[s])
		if err != nil {
			return 0, err
		}
		if err := eng.RegisterTable(name, part); err != nil {
			return 0, err
		}
	}
	l.tables[canonical(name)] = map[string]any{"next_global": n, "row_maps": rowmaps, "centroids": seeds}
	return n, nil
}

// close closes the shards and writes the legacy manifest.
func (l *legacyLayout) close() {
	for _, eng := range l.shards {
		if err := eng.Close(); err != nil {
			l.t.Fatal(err)
		}
	}
	data, err := json.Marshal(map[string]any{"shards": len(l.shards), "partitioner": "centroid", "tables": l.tables})
	if err != nil {
		l.t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(l.dir, manifestFile), data, 0o644); err != nil {
		l.t.Fatal(err)
	}
}

// openLegacy loads a legacy centroid layout into a fresh directory and
// boots a router on it with the default placement.
func openLegacy(t *testing.T, cfg service.Config, shards int, load func(*testing.T, registrar)) *Router {
	t.Helper()
	cfg.DataDir = t.TempDir()
	l := newLegacyLayout(t, cfg, shards)
	load(t, l)
	l.close()
	r, err := Open(Config{Shards: shards, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestLegacyCentroidManifestBoots: a directory whose SHARDS.json names the
// retired centroid placement, with centroids, boots; it serves the
// unsharded engine's matches, takes an upsert that moves keys off their
// legacy shards, and from then on writes a hash manifest without
// centroids, which boots again to the same matches.
func TestLegacyCentroidManifestBoots(t *testing.T) {
	cfg := diffConfig(t)
	cfg.Threads = 1
	ctx := context.Background()
	sql := service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"}
	ref := newUnsharded(t, cfg, loadCorpus)

	cfg.DataDir = t.TempDir()
	l := newLegacyLayout(t, cfg, 4)
	loadCorpus(t, l)
	l.close()
	if l.moved == 0 {
		t.Fatal("legacy layout placed every row where hash placement would; the test is vacuous")
	}
	open := func() *Router {
		t.Helper()
		r, err := Open(Config{Shards: 4, Engine: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	want, err := ref.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "legacy boot", want, got)

	words := diffWords()
	up := diffBatch(t, [][2]string{{words[1], "2001"}, {words[2], "2002"}, {words[3], "2003"}, {words[7], "2007"}})
	wantUp, err := ref.UpsertRows(ctx, "l", "word", up)
	if err != nil {
		t.Fatal(err)
	}
	gotUp, err := r.UpsertRows(ctx, "l", "word", up)
	if err != nil {
		t.Fatal(err)
	}
	if gotUp.Replaced != wantUp.Replaced || gotUp.LiveRows != wantUp.LiveRows {
		t.Errorf("upsert: unsharded %+v, sharded %+v", wantUp, gotUp)
	}
	if want, err = ref.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if got, err = r.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "legacy upsert", want, got)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(cfg.DataDir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if s := string(raw); !strings.Contains(s, `"partitioner": "hash"`) || strings.Contains(s, "centroids") {
		t.Errorf("manifest after the upsert still names the legacy placement:\n%s", s)
	}
	r = open()
	defer r.Close()
	if got, err = r.Query(ctx, sql); err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "reboot after upsert", want, got)
}

// TestShardDifferentialKeyMoves upserts on a key that is not the routing
// column and changes the routing column, so hash placement moves each key
// to another shard: UpsertRows' migration deletes must remove the old
// rows, and counts and matches must equal the unsharded engine's.
func TestShardDifferentialKeyMoves(t *testing.T) {
	schema := relational.Schema{{Name: "tag", Type: relational.Int64}, {Name: "word", Type: relational.String}, {Name: "n", Type: relational.Int64}}
	words := diffWords()
	load := func(t *testing.T, b registrar) {
		var sb strings.Builder
		sb.WriteString("tag,word,n\n")
		for i, w := range words {
			fmt.Fprintf(&sb, "%d,%s,%d\n", i%4, w, i)
		}
		if _, err := b.RegisterCSV("l", schema, strings.NewReader(sb.String()), false); err != nil {
			t.Fatal(err)
		}
		_, r := diffCSV(t)
		if _, err := b.RegisterCSV("r", diffSchemaR, strings.NewReader(r), false); err != nil {
			t.Fatal(err)
		}
	}
	// Every key's tag goes from i%4 to i%4+1, which hash placement puts on
	// another shard at 2 shards and at 4. The keys are words the corpus
	// holds once: with a key on rows of several shards, migration deletes
	// retire one row per shard where the engine retires one in all.
	seen := map[string]int{}
	for _, w := range words {
		seen[w]++
	}
	var keys []int
	for i := 0; len(keys) < 8; i++ {
		if seen[words[i]] == 1 {
			keys = append(keys, i)
		}
	}
	var tags, ns relational.Int64Column
	var ws relational.StringColumn
	for _, i := range keys {
		tags = append(tags, int64(i%4+1))
		ws = append(ws, words[i])
		ns = append(ns, int64(3000+i))
	}
	up, err := relational.NewTable(schema, []relational.Column{tags, ws, ns})
	if err != nil {
		t.Fatal(err)
	}
	sql := service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"}
	ctx := context.Background()
	cfg := diffConfig(t)
	ref := newUnsharded(t, cfg, load)
	wantUp, err := ref.UpsertRows(ctx, "l", "word", up)
	if err != nil {
		t.Fatal(err)
	}
	if wantUp.Replaced != len(keys) {
		t.Fatalf("unsharded upsert replaced %d rows, want %d", wantUp.Replaced, len(keys))
	}
	want, err := ref.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(strconv.Itoa(shards), func(t *testing.T) {
			r := newRouter(t, cfg, shards, "hash", load)
			tm := r.tables["l"]
			newOwner, err := owners(up, shards)
			if err != nil {
				t.Fatal(err)
			}
			moves := 0
			for i, k := range keys {
				if int(tm.locs[k].shard) != newOwner[i] {
					moves++
				}
			}
			if moves == 0 {
				t.Fatal("no upserted key changes shards; the migration deletes go untested")
			}
			got, err := r.UpsertRows(ctx, "l", "word", up)
			if err != nil {
				t.Fatal(err)
			}
			if got.Upserted != wantUp.Upserted || got.Replaced != wantUp.Replaced || got.LiveRows != wantUp.LiveRows {
				t.Errorf("upsert: unsharded %+v, sharded %+v", wantUp, got)
			}
			res, err := r.Query(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, "after key moves", want, res)
		})
	}
}
