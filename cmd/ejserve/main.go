// Command ejserve exposes the concurrent query engine over HTTP/JSON: a
// long-lived process holding one shared embedding store, a named-table
// catalog, a prepared-plan cache, and an admission controller, serving
// context-enhanced joins to concurrent clients.
//
//	ejserve -addr :8080 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/tables -d '{
//	  "name": "catalog", "schema": "sku:int,name:text",
//	  "csv": "sku,name\n1,barbecue\n2,database\n"}'
//	curl -s -X POST localhost:8080/query -d '{
//	  "sql": "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.6"}'
//	curl -s localhost:8080/stats
//
// Endpoints: POST /query (sqlish text or structured join spec; "explain":
// true returns the EXPLAIN ANALYZE plan tree and span trace), POST
// /tables (CSV ingest; duplicate names are 409 unless replace is set),
// GET /tables, DELETE /tables/{name}, POST /tables/{name}/rows
// (row-level upsert by key column; WAL-logged before applying on durable
// engines), DELETE /tables/{name}/rows (tombstone rows by key), POST
// /snapshot (flush + compact durable state), GET /stats (includes
// mutation and tracing stats), GET /metrics (Prometheus text
// exposition), GET /debug/queries (slow-query log: recent + worst
// traces; ?table= and ?min_ms= filter), GET /debug/feedback (the
// feedback registry: learned output-cardinality corrections and
// q-error), GET /debug/pprof/* (with -debug-pprof), GET /healthz
// (liveness), GET /readyz (readiness: 503 until WAL replay and
// warm-start complete). Every request carries an
// X-Request-ID (client-supplied or generated), echoed in the response
// header and error bodies and used as the query's trace id. SIGINT/SIGTERM
// drain in-flight queries, then flush durable state, before exit.
//
// With -data-dir the process is durable: ingested tables and every
// computed embedding persist, so killing the server and rebooting it on
// the same directory serves the first repeated query with zero model
// calls. Recovery is crash-safe — torn log tails are truncated and
// checksum-failing records skipped, never served.
//
// With -shards N (N > 1) the process runs N engine shards behind an
// in-process router: ingest and mutations are placed on shards by a hash
// of each row's first column, queries scatter to every shard and
// gather through a streaming merge, and results are byte-identical to
// the same data on a single engine. /stats reports per-shard plus
// aggregated sections, /metrics adds the ejoin_shard_* families, and
// /readyz stays 503 until every shard finishes WAL replay. A durable
// sharded deployment must reboot with the same -shards. -partitioner
// accepts only hash, the one placement.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ejoin/internal/mat"
	"ejoin/internal/service"
	"ejoin/internal/shard"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		dim            = flag.Int("dim", 100, "embedding dimensionality of the built-in hash model")
		storeBytes     = flag.Int64("store-bytes", 256<<20, "embedding store budget in bytes")
		maxConcurrent  = flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
		admissionBytes = flag.Int64("admission-bytes", 1<<30, "admission budget over estimated intermediate bytes")
		timeout        = flag.Duration("timeout", 30*time.Second, "default per-query deadline (0 = none)")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeout_ms (0 = uncapped)")
		planCache      = flag.Int("plan-cache", 256, "prepared query cache entries")
		threads        = flag.Int("threads", 0, "per-query worker threads (0 = GOMAXPROCS)")
		drain          = flag.Duration("drain", 10*time.Second, "graceful shutdown drain window")
		dataDir        = flag.String("data-dir", "", "data directory for durable state: table files, a manifest and one WAL of mutations and computed embeddings (empty = memory-only); restarts on the same directory serve warm")
		slowThreshold  = flag.Duration("slow-query-threshold", 0, "minimum elapsed time for a trace to enter the slow-query ring (0 = record every query; the worst-N set is kept regardless)")
		disableTracing = flag.Bool("disable-tracing", false, "skip per-query traces (explain requests still trace; histograms and counters stay on)")
		execBlockRows  = flag.Int("exec-block-rows", 0, "executor probe-side block size in rows (0 = default 4096); results do not depend on it")
		debugPprof     = flag.Bool("debug-pprof", false, "expose net/http/pprof under /debug/pprof/")
		calibrateCost  = flag.Bool("calibrate-cost", false, "measure this machine's access/compare/embed costs at boot and plan with them instead of the built-in defaults")
		shards         = flag.Int("shards", 1, "in-process engine shards (1 = single unsharded engine)")
		partitioner    = flag.String("partitioner", "hash", "row placement across shards: hash, the only one (ignored with -shards 1)")
	)
	flag.Parse()

	cfg := service.Config{
		Dim:            *dim,
		StoreBytes:     *storeBytes,
		MaxConcurrent:  *maxConcurrent,
		AdmissionBytes: *admissionBytes,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		PlanCacheSize:  *planCache,
		Threads:        *threads,
		DataDir:        *dataDir,

		ExecBlockRows: *execBlockRows,

		DisableTracing:     *disableTracing,
		SlowQueryThreshold: *slowThreshold,

		CalibrateCost: *calibrateCost,
	}

	tile, int8, topk := mat.Kernels()
	log.Printf("ejserve: scan tile %s, int8 filter %s, top-k cells %s", tile, int8, topk)
	srv := newServer(*debugPprof)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		log.Printf("ejserve: listening on %s", *addr)
		done <- httpSrv.ListenAndServe()
	}()

	// The backend opens in the background so the listener answers /healthz
	// and /readyz during WAL replay and warm-start; /readyz flips to 200
	// when the backend is published. A sharded boot replays every shard's
	// WAL before publish, so readiness covers the whole deployment.
	boot := make(chan error, 1)
	go func() {
		b, err := openBackend(cfg, *shards, *partitioner)
		if err != nil {
			srv.failBoot(err)
			boot <- err
			return
		}
		if p := b.CostParams(); b.Calibrated() {
			log.Printf("ejserve: cost model calibrated: access=%.3g compare=%.3g model=%.3g (per-tuple units)",
				p.Access, p.Compare, p.Model)
		}
		srv.publish(b)
		log.Printf("ejserve: ready")
		boot <- nil
	}()

	select {
	case err := <-boot:
		if err != nil {
			httpSrv.Close()
			fmt.Fprintln(os.Stderr, "ejserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Killed during boot: stop listening, let Open finish, release
		// whatever it recovered.
		httpSrv.Close()
		if err := <-boot; err == nil {
			srv.eng().Close()
		}
		return
	case err := <-done:
		fmt.Fprintln(os.Stderr, "ejserve:", err)
		os.Exit(1)
	}

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			srv.eng().Close()
			fmt.Fprintln(os.Stderr, "ejserve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("ejserve: shutting down, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("ejserve: drain incomplete: %v", err)
		}
	}
	// After drain: flush the write-behind queue and close the log, so the
	// next boot on this data directory recovers everything this process
	// embedded.
	if err := srv.eng().Close(); err != nil {
		log.Printf("ejserve: closing durable state: %v", err)
	}
}

// openBackend opens the sharded router (shards > 1) or one engine,
// logging what a durable boot recovered.
func openBackend(cfg service.Config, shards int, partitioner string) (backend, error) {
	if shards > 1 {
		router, err := shard.Open(shard.Config{Shards: shards, Partitioner: partitioner, Engine: cfg})
		if err != nil {
			return nil, err
		}
		log.Printf("ejserve: %d shards, hash placement", router.Shards())
		return routerBackend{router}, nil
	}
	engine, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir != "" {
		st := engine.Stats()
		if d := st.Durable; d != nil {
			log.Printf("ejserve: durable: %d tables, %d cached embeddings recovered from %s", d.LoadedTables, d.LoadedEntries, cfg.DataDir)
			for _, warn := range d.Warnings {
				log.Printf("ejserve: durable: recovery: %s", warn)
			}
		}
		if m := st.Mutation; m != nil && m.WAL != nil {
			log.Printf("ejserve: mutation: wal replayed %d records (%d skipped, %d torn bytes truncated)",
				m.ReplayedRecords, m.SkippedRecords, m.WAL.TruncatedBytes)
		}
	}
	return engineBackend{engine}, nil
}
