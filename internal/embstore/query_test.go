package embstore_test

import (
	"context"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
)

// TestStoreAccountsWarmQuery runs one join twice through a store-backed
// executor and optimizer: the cold run fills the store with one entry per
// distinct input, and the warm run is served entirely from it — one hit
// per input, no misses and no model calls — with identical matches.
func TestStoreAccountsWarmQuery(t *testing.T) {
	m, err := model.NewHashEmbedder(48)
	if err != nil {
		t.Fatal(err)
	}
	store := embstore.New(embstore.Config{MaxBytes: 8 << 20})
	ex := &plan.Executor{Options: core.Options{Kernel: vec.DefaultKernel()}, Store: store}
	opt := plan.NewOptimizer()
	opt.Store = store

	table := func(vals ...string) *relational.Table {
		tbl, err := relational.NewTable(
			relational.Schema{{Name: "name", Type: relational.String}},
			[]relational.Column{relational.StringColumn(vals)},
		)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	q := plan.Query{
		Left:  plan.TableRef{Name: "L", Table: table("barbecue", "database"), TextColumn: "name"},
		Right: plan.TableRef{Name: "R", Table: table("barbecues", "databases", "giraffe"), TextColumn: "name"},
		Model: m,
		Join:  plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: 0.5},
	}
	const distinct = 5
	ctx := context.Background()

	cold, _, err := plan.Run(ctx, q, ex, opt)
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if after.Entries != distinct || after.Misses != distinct || after.ModelCalls != distinct {
		t.Errorf("cold run: stats %+v, want %d entries, misses and model calls", after, distinct)
	}

	warm, _, err := plan.Run(ctx, q, ex, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits-after.Hits != distinct || st.Misses != after.Misses || st.ModelCalls != after.ModelCalls {
		t.Errorf("warm run: stats %+v after %+v, want %d more hits and nothing else", st, after, distinct)
	}
	if warm.Stats.ModelCalls != 0 {
		t.Errorf("warm run reported %d model calls, want 0", warm.Stats.ModelCalls)
	}
	if len(cold.Matches) == 0 || len(warm.Matches) != len(cold.Matches) {
		t.Fatalf("matches: cold %d, warm %d", len(cold.Matches), len(warm.Matches))
	}
	for i := range warm.Matches {
		if warm.Matches[i] != cold.Matches[i] {
			t.Errorf("match %d: cold %+v, warm %+v", i, cold.Matches[i], warm.Matches[i])
		}
	}
}
