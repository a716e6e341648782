package main

import (
	"context"
	"io"

	"ejoin/internal/cost"
	"ejoin/internal/feedback"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/service"
	"ejoin/internal/shard"
)

// backend is the engine surface the HTTP layer serves: satisfied by a
// single service.Engine and by the shard.Router (with -shards > 1), so
// every endpoint works identically sharded and unsharded. Stats and
// Snapshot return different concrete types on the two backends
// (ServerStats vs RouterStats, SnapshotInfo vs RouterSnapshot); the
// adapters below erase them to JSON-ready values.
type backend interface {
	Query(ctx context.Context, req service.QueryRequest) (*service.QueryResult, error)
	RegisterCSV(name string, schema relational.Schema, r io.Reader, replace bool) (int, error)
	UpsertCSV(ctx context.Context, name, keyCol string, r io.Reader) (service.MutationResult, error)
	DeleteRows(ctx context.Context, name, keyCol string, keys []string) (service.MutationResult, error)
	Tables() []service.TableInfo
	HasTable(name string) bool
	DropTable(name string) bool
	WriteMetrics(w io.Writer) error
	SlowQueries() obs.SlowLogDump
	FeedbackDump() feedback.Dump
	CostParams() cost.Params
	Calibrated() bool
	Close() error

	statsValue() any
	snapshotValue() (any, error)
}

// engineBackend serves one unsharded engine.
type engineBackend struct{ *service.Engine }

func (b engineBackend) statsValue() any             { return b.Engine.Stats() }
func (b engineBackend) snapshotValue() (any, error) { return b.Engine.Snapshot() }

// routerBackend serves a shard router; /stats carries the per-shard plus
// aggregated RouterStats and /metrics the ejoin_shard_* families.
type routerBackend struct{ *shard.Router }

func (b routerBackend) statsValue() any             { return b.Router.Stats() }
func (b routerBackend) snapshotValue() (any, error) { return b.Router.Snapshot() }
