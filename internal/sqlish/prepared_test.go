package sqlish

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
)

// run prepares text against c and executes the bound query with the
// default executor and optimizer.
func run(ctx context.Context, text string, c *Catalog, m model.Model) (*plan.ExecResult, plan.Query, error) {
	p, err := Prepare(text, c, m)
	if err != nil {
		return nil, plan.Query{}, err
	}
	res, _, err := plan.Run(ctx, p.Query(), nil, nil)
	return res, p.Query(), err
}

func TestPrepareReusableAcrossRuns(t *testing.T) {
	c, m := testCatalog(t)
	p, err := Prepare("SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Generation() != c.Generation() {
		t.Errorf("generation: prepared %d, catalog %d", p.Generation(), c.Generation())
	}
	first, _, err := plan.Run(context.Background(), p.Query(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := plan.Run(context.Background(), p.Query(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Matches) == 0 || len(first.Matches) != len(second.Matches) {
		t.Errorf("runs differ: %d vs %d matches", len(first.Matches), len(second.Matches))
	}
}

func TestPrepareStaleAfterCatalogChange(t *testing.T) {
	c, m := testCatalog(t)
	p, err := Prepare("SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Drop("feed") {
		t.Fatal("feed should exist")
	}
	if p.Generation() == c.Generation() {
		t.Error("drop did not advance the catalog generation")
	}
	if c.Drop("feed") {
		t.Error("second drop should report missing")
	}
	if _, ok := c.Get("feed"); ok {
		t.Error("feed still resolvable after drop")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "catalog" {
		t.Errorf("names after drop: %v", got)
	}
}

func TestRunWithErrorPaths(t *testing.T) {
	c, m := testCatalog(t)
	cases := []struct {
		name, query, want string
	}{
		{"parse", "SELECT FROM catalog", "expected"},
		{"unknown table", "SELECT * FROM nope JOIN feed ON SIM(nope.name, feed.title) >= 0.5", `unknown table "nope"`},
		{"unknown column", "SELECT * FROM catalog JOIN feed ON SIM(catalog.nope, feed.title) >= 0.5", `no column "nope"`},
		{"mismatched join tables", "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, catalog.name) >= 0.5", "do not match"},
		{"predicate table", "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE other.x = 1", "not in FROM"},
		{"predicate type", "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE catalog.sku = 'abc'", "integer literal"},
		{"join column type", "SELECT * FROM catalog JOIN feed ON SIM(catalog.sku, feed.title) >= 0.5", "must be TEXT or VECTOR"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := run(context.Background(), tc.query, c, m)
			if err == nil {
				t.Fatalf("%q: expected error", tc.query)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q: error %q does not mention %q", tc.query, err, tc.want)
			}
		})
	}
}

// TestCatalogConcurrentUse exercises a shared Catalog under the race
// detector: writers register and drop tables while readers prepare and
// run queries against the stable pair.
func TestCatalogConcurrentUse(t *testing.T) {
	c, m := testCatalog(t)
	const (
		writers = 4
		readers = 8
		rounds  = 25
	)
	extra, err := relational.NewTable(
		relational.Schema{{Name: "s", Type: relational.String}},
		[]relational.Column{relational.StringColumn{"x", "y"}},
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("scratch%d", w)
			for r := 0; r < rounds; r++ {
				c.Register(name, extra)
				_ = c.Names()
				_ = c.Generation()
				c.Drop(name)
			}
		}(w)
	}
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, _, err := run(context.Background(),
					"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35", c, m)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Matches) == 0 {
					errs <- fmt.Errorf("no matches")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
