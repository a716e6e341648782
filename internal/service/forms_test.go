package service

import (
	"context"
	"strconv"
	"testing"

	"ejoin/internal/embstore"
)

// checkForms fails the test unless every resident chunk of the current
// version of table's text column holds forms that equal a fresh build
// from its vectors, and returns how many chunks had some built.
func checkForms(t *testing.T, e *Engine, table string) (built int) {
	t.Helper()
	pt, ok := e.PinnedTable(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	key := embstore.ChunkKey{Fingerprint: embstore.Fingerprint(e.Model()), Incarnation: pt.Table.Incarnation(), Column: "text"}
	for key.Index = 0; key.Index*embstore.ChunkRows < pt.Table.NumRows(); key.Index++ {
		c, ok := e.Store().PeekChunk(key)
		if !ok {
			continue
		}
		if c.Forms().Bytes() > 0 {
			built++
		}
		err := c.Forms().Verify()
		c.Release()
		if err != nil {
			t.Fatalf("%s chunk %d: %v", table, key.Index, err)
		}
	}
	return built
}

// TestChunkFormsStayFresh: the forms a query builds on a column's chunks
// are those of the chunks' vectors after upserts grow and overwrite rows
// and after a compaction moves the column to a new lineage; each later
// query still matches the oracle.
func TestChunkFormsStayFresh(t *testing.T) {
	e, _ := openTestEngine(t, "")
	defer e.Close()
	churn := docsChurn(t, e, 600, 5)
	checkOracle(t, e)
	if checkForms(t, e, "docs") == 0 || checkForms(t, e, "probe") == 0 {
		t.Fatal("a query built no forms on the joined columns' chunks")
	}
	for i := 0; i < 12; i++ {
		churn(e)
		checkOracle(t, e)
		checkForms(t, e, "docs")
	}
	var keys []string
	for i := 0; i < 400; i++ {
		keys = append(keys, strconv.Itoa(i))
	}
	if _, err := e.DeleteRows(context.Background(), "docs", "id", keys); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().Mutation.Compactions; n == 0 {
		t.Fatal("the deletes did not compact docs")
	}
	checkOracle(t, e)
	if checkForms(t, e, "docs") == 0 {
		t.Fatal("the query after the compaction built no forms on the new lineage's chunks")
	}
}
