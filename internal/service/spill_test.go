package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/obs"
)

// spillFiles lists this process's open descriptors on an embedding store
// spill file: the path each links to, and the file's size.
func spillFiles(t *testing.T) map[string]int64 {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	out := make(map[string]int64)
	for _, fd := range fds {
		p := filepath.Join("/proc/self/fd", fd.Name())
		target, err := os.Readlink(p)
		if err != nil || !strings.Contains(target, "embstore-spill-") {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[target] = fi.Size()
	}
	return out
}

// restoredWithoutModel reports whether an embed node of the tree read rows
// back from the spill file and called the model for none.
func restoredWithoutModel(n *obs.NodeStats) bool {
	if regexp.MustCompile(`\brestored=[1-9]`).MatchString(n.Detail) && strings.Contains(n.Detail, "model_calls=0") {
		return true
	}
	for _, c := range n.Children {
		if restoredWithoutModel(c) {
			return true
		}
	}
	return false
}

// TestSpillFileLifecycle: on a memory-only engine whose store holds one
// chunk, a table dropped and created again round after round reuses its
// spill slots, so the spill file never outgrows the live chunks; the file
// is unlinked from the moment it exists, and Close releases it.
func TestSpillFileLifecycle(t *testing.T) {
	const dim, chunks = 64, 3
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	chunkBytes := int64(embstore.ChunkRows * dim * 4)
	e, err := NewEngine(Config{Model: m, StoreBytes: chunkBytes * 3 / 2})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			e.Close()
		}
	})
	before := spillFiles(t)
	right := make([]string, embstore.ChunkRows)
	for i := range right {
		right[i] = fmt.Sprintf("right %d", i)
	}
	tbl, err := stringTable(right)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("right", tbl); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var spilled int64
	for round := 0; round < 4; round++ {
		left := make([]string, chunks*embstore.ChunkRows)
		for i := range left {
			left[i] = fmt.Sprintf("round %d left %d", round, i)
		}
		tbl, err := stringTable(left)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable("left", tbl); err != nil { // replaces: a new incarnation
			t.Fatal(err)
		}
		if _, err := e.Query(ctx, QueryRequest{SQL: testQuery}); err != nil {
			t.Fatal(err)
		}
		// The second run reads the evicted chunks back, and EXPLAIN
		// ANALYZE's embed nodes say so.
		res, err := e.Query(ctx, QueryRequest{SQL: testQuery, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if !restoredWithoutModel(res.Plan) {
			t.Fatalf("round %d: no embed node reports restored rows and no model call:\n%s", round, res.PlanText)
		}
		st := e.Stats().Store
		if st.Spilled <= spilled || st.Restored == 0 {
			t.Fatalf("round %d: store %+v; want new chunks spilled and read back", round, st)
		}
		spilled = st.Spilled
		var files []int64
		for target, size := range spillFiles(t) {
			if _, ok := before[target]; ok {
				continue
			}
			if _, err := os.Stat(strings.TrimSuffix(target, " (deleted)")); !os.IsNotExist(err) {
				t.Errorf("spill file %s is still linked (stat: %v)", target, err)
			}
			files = append(files, size)
		}
		// A full chunk's slot is its vectors plus a header of under 1 KB.
		if len(files) != 1 || files[0]/chunkBytes > chunks+1 {
			t.Fatalf("round %d: spill files of %v bytes; want one of at most %d chunk slots", round, files, chunks+1)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	for target := range spillFiles(t) {
		if _, ok := before[target]; !ok {
			t.Errorf("spill file %s still open after Close", target)
		}
	}
}

// TestSpillConcurrentQueriesMatchUnbounded: concurrent queries over
// tables that cycle through a store holding one chunk — every chunk read
// back from the spill file, evicted while other queries hold it, its
// storage reused — return exactly the matches of an engine whose store
// holds everything. Run with -race.
func TestSpillConcurrentQueriesMatchUnbounded(t *testing.T) {
	const dim, tables = 32, 3
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewEngine(Config{Model: m, StoreBytes: embstore.ChunkRows * dim * 4 * 3 / 2})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	big, err := NewEngine(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	var probe []string
	for i := 0; i < 8; i++ {
		probe = append(probe, fmt.Sprintf("row %d of table %d", i*61, i%tables))
	}
	for _, e := range []*Engine{small, big} {
		for k := 0; k < tables; k++ {
			rows := make([]string, 2*embstore.ChunkRows)
			for i := range rows {
				rows[i] = fmt.Sprintf("row %d of table %d", i, k)
			}
			tbl, err := stringTable(rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterTable(fmt.Sprintf("t%d", k), tbl); err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := stringTable(probe)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterTable("probe", tbl); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	sql := func(k int) string {
		return fmt.Sprintf("SELECT * FROM t%d JOIN probe ON SIM(t%[1]d.text, probe.text) >= 0.9", k)
	}
	want := make([]string, tables)
	for k := range want {
		res, err := big.Query(ctx, QueryRequest{SQL: sql(k)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("table %d: no matches to compare", k)
		}
		want[k] = fmt.Sprint(res.Matches)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % tables
				res, err := small.Query(ctx, QueryRequest{SQL: sql(k)})
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(res.Matches); got != want[k] {
					t.Errorf("table %d: matches differ from the unbounded store's", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The probe's texts are the tables' too; each may be embedded again for
	// the probe's own chunk, when the per-text entry left the store.
	if st := small.Stats().Store; st.Restored == 0 || st.ModelCalls > int64(tables*2*embstore.ChunkRows+len(probe)) {
		t.Errorf("store %+v: want restores and each table row embedded once", st)
	}
}
