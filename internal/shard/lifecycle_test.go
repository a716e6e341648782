package shard

// The router serves through the same query lifecycle as an Engine
// (service.Frontend), so every request-level contract — bad-request
// classification, error text, deadline clamp, admission, counters, plan
// cache — must read the same on both backends.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ejoin/internal/cost"
	"ejoin/internal/model"
	"ejoin/internal/quant"
	"ejoin/internal/relational"
	"ejoin/internal/service"
)

// gateModel blocks every Embed while a gate is set: a query that embeds
// then holds its execution slot until the gate opens.
type gateModel struct {
	model.Model
	gate atomic.Pointer[gate]
}

type gate struct {
	entered chan struct{} // closed by the first blocked Embed
	once    sync.Once
	release chan struct{}
}

func (m *gateModel) Embed(s string) ([]float32, error) {
	if g := m.gate.Load(); g != nil {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return m.Model.Embed(s)
}

// holdSlot starts a query over a fresh (cold) table that blocks inside
// execution, so it holds the backend's only execution slot until the
// returned release is called.
func holdSlot(t *testing.T, b backend, gm *gateModel, name string) (release func()) {
	t.Helper()
	rows := fmt.Sprintf("term,n\n%s-a,1\n%s-b,2\n", name, name)
	if _, err := b.RegisterCSV(name, diffSchemaR, strings.NewReader(rows), false); err != nil {
		t.Fatal(err)
	}
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	gm.gate.Store(g)
	done := make(chan error, 1)
	go func() {
		_, err := b.Query(context.Background(), service.QueryRequest{
			SQL: fmt.Sprintf("SELECT * FROM l JOIN %s ON SIM(l.word, %s.term) >= 0.9", name, name),
		})
		done <- err
	}()
	select {
	case <-g.entered:
	case err := <-done:
		t.Fatalf("holding query finished without embedding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("holding query never reached execution")
	}
	return func() {
		gm.gate.Store(nil)
		close(g.release)
		if err := <-done; err != nil {
			t.Fatalf("holding query: %v", err)
		}
	}
}

func TestRequestContract(t *testing.T) {
	const sql = "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"
	join := func(lt, lc, rt, rc, kind string, k int, thr *float64) *service.JoinRequest {
		return &service.JoinRequest{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc, Kind: kind, K: k, Threshold: thr}
	}
	outside := 1.5
	cases := []struct {
		name string
		req  service.QueryRequest
		// hold runs the request while a running query holds the only
		// execution slot; cancel also cancels the caller's context.
		hold, cancel bool
		bad          bool
		err          string // substring of the error text
		rejected     int64
	}{
		{name: "sql and join", req: service.QueryRequest{SQL: sql, Join: join("l", "word", "r", "term", "", 0, nil)},
			bad: true, err: "service: request has both sql and join spec"},
		{name: "empty request", bad: true, err: "service: empty request"},
		{name: "unknown table", req: service.QueryRequest{Join: join("nosuch", "word", "r", "term", "", 0, nil)},
			bad: true, err: `service: unknown table "nosuch"`},
		{name: "unknown column", req: service.QueryRequest{Join: join("l", "nosuch", "r", "term", "", 0, nil)},
			bad: true, err: `table "l" has no column "nosuch"`},
		{name: "non-text column", req: service.QueryRequest{Join: join("l", "n", "r", "term", "", 0, nil)},
			bad: true, err: "join column l.n must be TEXT, is BIGINT"},
		{name: "bad kind", req: service.QueryRequest{Join: join("l", "word", "r", "term", "fuzzy", 0, nil)},
			bad: true, err: `service: unknown join kind "fuzzy"`},
		{name: "k <= 0", req: service.QueryRequest{Join: join("l", "word", "r", "term", "topk", 0, nil)},
			bad: true, err: "service: topk join requires k > 0"},
		{name: "threshold outside [-1, 1]", req: service.QueryRequest{Join: join("l", "word", "r", "term", "threshold", 0, &outside)},
			bad: true, err: "threshold"},
		{name: "sql parse error", req: service.QueryRequest{SQL: "SELECT * FROM l JOIN"}, bad: true, err: "sqlish"},
		{name: "max timeout caps a longer request timeout", req: service.QueryRequest{SQL: sql, Timeout: time.Hour},
			hold: true, err: "service: admission wait aborted: context deadline exceeded", rejected: 1},
		{name: "admission wait cancelled", req: service.QueryRequest{SQL: sql},
			hold: true, cancel: true, err: "service: admission wait aborted: context canceled", rejected: 1},
	}

	type outcome struct {
		bad              bool
		err              string
		errors, rejected int64
	}
	backends := []struct {
		name string
		open func(*testing.T, service.Config) (backend, func() service.QueryStats)
	}{
		{"engine", func(t *testing.T, cfg service.Config) (backend, func() service.QueryStats) {
			e, err := service.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			return e, func() service.QueryStats { return e.Stats().QueryStats }
		}},
		{"router-2", func(t *testing.T, cfg service.Config) (backend, func() service.QueryStats) {
			r, err := Open(Config{Shards: 2, Partitioner: "hash", Engine: cfg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r, func() service.QueryStats { return r.Stats().QueryStats }
		}},
	}

	var ref []outcome
	for bi, bk := range backends {
		base, err := model.NewHashEmbedder(32)
		if err != nil {
			t.Fatal(err)
		}
		gm := &gateModel{Model: base}
		b, stats := bk.open(t, service.Config{
			Model:         gm,
			MaxConcurrent: 1,
			MaxTimeout:    20 * time.Millisecond,
			PlanCacheSize: 2,
			ExecBlockRows: 16,
		})
		loadCorpus(t, b)

		got := make([]outcome, len(cases))
		for i, c := range cases {
			ctx, cancel := context.WithCancel(context.Background())
			var release func()
			if c.hold {
				release = holdSlot(t, b, gm, fmt.Sprintf("hold%d", i))
			}
			if c.cancel {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			before := stats()
			_, err := b.Query(ctx, c.req)
			after := stats()
			cancel()
			if release != nil {
				release()
			}
			if err == nil {
				t.Fatalf("%s/%s: request succeeded", bk.name, c.name)
			}
			o := outcome{
				bad:      service.IsBadRequest(err),
				err:      err.Error(),
				errors:   after.Errors - before.Errors,
				rejected: after.Rejected - before.Rejected,
			}
			if o.bad != c.bad || !strings.Contains(o.err, c.err) || o.errors != 1 || o.rejected != c.rejected {
				t.Errorf("%s/%s: got %+v, want bad=%v err~%q errors+1 rejected+%d", bk.name, c.name, o, c.bad, c.err, c.rejected)
			}
			got[i] = o
		}
		if bi == 0 {
			ref = got
		} else {
			for i, c := range cases {
				if got[i] != ref[i] {
					t.Errorf("%s: %s disagrees with %s:\n  %+v\n  %+v", c.name, bk.name, backends[0].name, got[i], ref[i])
				}
			}
		}

		// The plan cache is one LRU: an entry that keeps being hit survives
		// PlanCacheSize (here 2) other inserts, twice over.
		if _, err := b.Query(context.Background(), service.QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			other := fmt.Sprintf("SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.8%d", i)
			if _, err := b.Query(context.Background(), service.QueryRequest{SQL: other}); err != nil {
				t.Fatal(err)
			}
			res, err := b.Query(context.Background(), service.QueryRequest{SQL: sql})
			if err != nil {
				t.Fatal(err)
			}
			if !res.PlanCacheHit {
				t.Errorf("%s: hot plan evicted after %d other inserts", bk.name, i+1)
			}
		}
	}
}

// TestRouterCalibratesOnce: with CalibrateCost the process measures once,
// and the router — the only component that plans — plans with the
// measurement rather than cost.DefaultParams.
func TestRouterCalibratesOnce(t *testing.T) {
	base, err := model.NewHashEmbedder(32)
	if err != nil {
		t.Fatal(err)
	}
	one := model.NewCountingModel(base)
	if _, err := cost.Calibrate(one, one.Dim()); err != nil {
		t.Fatal(err)
	}

	cm := model.NewCountingModel(base)
	r, err := Open(Config{Shards: 2, Engine: service.Config{Model: cm, CalibrateCost: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if !r.Calibrated() {
		t.Fatal("router reports uncalibrated params")
	}
	if r.CostParams() == cost.DefaultParams() {
		t.Error("router plans with cost.DefaultParams despite CalibrateCost")
	}
	if got, want := cm.Calls(), one.Calls(); got != want {
		t.Errorf("opening a 2-shard router made %d model calls, one calibration makes %d", got, want)
	}
}

// unreadable fails the test if anything reads it.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("CSV read for a precision that is not served")
	return 0, fmt.Errorf("unreadable")
}

// TestRegisterCSVWithPrecisionExactOnly: the precision-taking ingest that
// the repo benchmark's replay still calls forwards Auto and F32 to
// RegisterCSV on both backends, and rejects F16 and int8 as bad requests
// before reading the CSV.
func TestRegisterCSVWithPrecisionExactOnly(t *testing.T) {
	cfg := diffConfig(t)
	none := func(*testing.T, registrar) {}
	type ingester interface {
		RegisterCSVWithPrecision(name string, schema relational.Schema, r io.Reader, replace bool, prec quant.Precision) (int, error)
		HasTable(name string) bool
	}
	for label, b := range map[string]ingester{
		"engine": newUnsharded(t, cfg, none),
		"router": newRouter(t, cfg, 2, "hash", none),
	} {
		for _, p := range []quant.Precision{quant.PrecisionF16, quant.PrecisionInt8} {
			_, err := b.RegisterCSVWithPrecision("q", diffSchemaR, unreadable{t}, false, p)
			if err == nil || !service.IsBadRequest(err) {
				t.Errorf("%s at %v: err %v, want a bad request", label, p, err)
			}
			if b.HasTable("q") {
				t.Errorf("%s at %v registered the table", label, p)
			}
		}
		for i, p := range []quant.Precision{quant.PrecisionAuto, quant.PrecisionF32} {
			name := fmt.Sprintf("t%d", i)
			rows, err := b.RegisterCSVWithPrecision(name, diffSchemaR, strings.NewReader("term,n\na,1\nb,2\n"), false, p)
			if err != nil || rows != 2 || !b.HasTable(name) {
				t.Errorf("%s at %v: %d rows, err %v, registered %v", label, p, rows, err, b.HasTable(name))
			}
		}
	}
}
