// Package shard is the in-process horizontal sharding layer: a Router
// that owns N service.Engine shards inside one process, places each row
// on a shard by a hash of its first column, fans mutations to the owning
// shard's WAL, and serves queries scatter-gather. Queries run the same
// lifecycle an Engine's do — one service.Frontend resolves, admits,
// counts, and traces them — and the router supplies only its two backend
// steps (query.go): plan one pipeline per shard over pinned per-shard
// snapshots, then merge the build shards into one build and stream every
// probe shard through it with plan.OpenStream into an incremental merge
// (merge.go) whose results are byte-identical to an equivalent unsharded
// engine's. Placement changes no result and no pair count: every probe
// shard streams against the one merged build. A later cross-process split
// reuses the same placement/merge semantics.
//
// Singleton audit (what makes N engines in one process safe): every
// service.Engine owns its state per instance — prepared-plan cache,
// counters, latency histograms, slow log, and mutation/durable arms are
// all struct fields, not package globals, and metrics are rendered by an
// instance-scoped obs.MetricsWriter rather than a global registry. The
// deliberately shared resources come from one service.Resolve: one
// model.Model and one embstore.Store across all shards, so a fan-out
// embeds its probe side once and every shard's build evaluation hits the
// same cache instead of calling the model N times, and one cost
// calibration, which the router — the only component that plans — uses.
package shard

import (
	"fmt"
	"hash/fnv"

	"ejoin/internal/mutation"
	"ejoin/internal/relational"
)

// placement is the one row placement's name, as /stats and the shard
// manifest report it.
const placement = "hash"

// partitionKey renders one row of the routing column in the same
// canonical form the mutation layer keys rows by, so hash placement and
// upsert-key identity agree wherever the routing column is the key
// column.
func partitionKey(col relational.Column, row int) string {
	s, err := mutation.KeyString(col, row)
	if err != nil {
		return fmt.Sprintf("%v", row)
	}
	return s
}

// owners places each row of batch on one of shards: FNV-1a over the
// canonical string of the row's first column, mod shards. Placement is
// content-addressed and stateless, so the same row lands on the same
// shard across batches and restarts; it is skew-prone only when the first
// column has few distinct values.
func owners(batch *relational.Table, shards int) ([]int, error) {
	if batch.NumCols() == 0 {
		return nil, fmt.Errorf("shard: cannot hash-partition a zero-column table")
	}
	col := batch.ColumnAt(0)
	out := make([]int, batch.NumRows())
	for i := range out {
		f := fnv.New64a()
		f.Write([]byte(partitionKey(col, i)))
		out[i] = int(f.Sum64() % uint64(shards))
	}
	return out, nil
}
