package shard

// The shard manifest is the router's durable source of truth for row
// placement: which shard owns each global row id. It is written write-ahead — before the
// per-shard mutations it describes — so a crash leaves at worst a
// manifest that promises more rows than the shards physically hold;
// recovery trims those tails (and drops tables torn mid-ingest) instead
// of ever serving rows under wrong global ids.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ejoin/internal/durable"
	"ejoin/internal/relational"
)

// manifestFile is the router manifest's name under the router data dir.
const manifestFile = "SHARDS.json"

// loc is a global row id's physical placement.
type loc struct {
	shard, local int32
}

// tableMeta is one sharded table's routing state.
type tableMeta struct {
	schema relational.Schema
	// rowmap[s] maps shard s's physical row index to its global row id.
	// Entries are strictly increasing: gids are assigned in ingest/batch
	// order and shards only ever append physical rows (deletes tombstone).
	rowmap [][]int
	// locs inverts rowmap: locs[gid] = placement; shard -1 marks a gid
	// lost to a crash-trimmed tail (never referenced by live matches).
	locs []loc
	// next is the next global row id.
	next int
}

// assigned counts gids currently mapped per shard (partition skew's
// numerator; tombstoned rows still occupy their shard's arrays).
func (tm *tableMeta) assigned() []int {
	out := make([]int, len(tm.rowmap))
	for s, m := range tm.rowmap {
		out[s] = len(m)
	}
	return out
}

// rebuildLocs derives locs and next from rowmap.
func (tm *tableMeta) rebuildLocs() {
	next := 0
	for _, m := range tm.rowmap {
		for _, gid := range m {
			if gid >= next {
				next = gid + 1
			}
		}
	}
	tm.next = next
	tm.locs = make([]loc, next)
	for i := range tm.locs {
		tm.locs[i] = loc{shard: -1}
	}
	for s, m := range tm.rowmap {
		for i, gid := range m {
			tm.locs[gid] = loc{shard: int32(s), local: int32(i)}
		}
	}
}

// tableManifest is tableMeta's serialized form (schema lives in the
// shards' own table files; the manifest carries only routing state).
type tableManifest struct {
	NextGlobal int     `json:"next_global"`
	RowMaps    [][]int `json:"row_maps"`
}

type manifest struct {
	Shards      int                       `json:"shards"`
	Partitioner string                    `json:"partitioner"`
	Tables      map[string]*tableManifest `json:"tables"`
}

// saveManifest writes the router's routing state atomically. Callers hold
// r.mu. Memory-only routers skip persistence.
func (r *Router) saveManifest() error {
	if r.dataDir == "" {
		return nil
	}
	m := manifest{Shards: r.nshards, Partitioner: placement, Tables: make(map[string]*tableManifest, len(r.tables))}
	for name, tm := range r.tables {
		m.Tables[name] = &tableManifest{NextGlobal: tm.next, RowMaps: tm.rowmap}
	}
	path := filepath.Join(r.dataDir, manifestFile)
	err := durable.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&m)
	})
	if err != nil {
		return fmt.Errorf("shard: writing manifest: %w", err)
	}
	durable.SyncDir(r.dataDir)
	return nil
}

// loadManifest reads the router manifest; a missing file is a fresh
// deployment, not an error.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	return &m, nil
}
