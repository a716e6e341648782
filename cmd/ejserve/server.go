package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/service"
)

// maxBodyBytes bounds request bodies (queries and CSV uploads).
const maxBodyBytes = 64 << 20

// server wraps a backend (single engine, or shard router) with the
// HTTP/JSON surface. The backend is published only once Open completes
// (WAL replay on every shard, warm-start), so the process can listen —
// and answer /healthz and /readyz — while recovery is still running;
// every other endpoint is 503 until publish.
type server struct {
	backend atomic.Value // backend; nil until publish
	bootErr atomic.Pointer[string]
	mux     *http.ServeMux
}

func newServer(debugPprof bool) *server {
	s := &server{mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/queries", s.handleSlowQueries)
	s.mux.HandleFunc("GET /debug/feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /tables", s.handleListTables)
	s.mux.HandleFunc("POST /tables", s.handleCreateTable)
	s.mux.HandleFunc("DELETE /tables/{name}", s.handleDropTable)
	s.mux.HandleFunc("POST /tables/{name}/rows", s.handleUpsertRows)
	s.mux.HandleFunc("DELETE /tables/{name}/rows", s.handleDeleteRows)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	if debugPprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// eng is the published backend (nil until boot completes).
func (s *server) eng() backend {
	b, _ := s.backend.Load().(backend)
	return b
}

// publish makes the opened backend visible: /readyz flips to 200 and the
// data endpoints start serving. With a shard router this happens only
// after every shard finished WAL replay (Open blocks on all of them), so
// /readyz never passes a partially recovered deployment.
func (s *server) publish(b backend) { s.backend.Store(b) }

// failBoot records a fatal open error for /readyz to report while the
// process shuts down.
func (s *server) failBoot(err error) {
	msg := err.Error()
	s.bootErr.Store(&msg)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every request carries an id: the client's X-Request-ID if it sent
	// one, otherwise generated. The id is echoed in the response header,
	// in error bodies, and (via the context) becomes the query's trace id
	// in the slow-query log.
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > 128 {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	if s.eng() == nil && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
		writeError(w, r, http.StatusServiceUnavailable, "engine is starting")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if h, pattern := s.mux.Handler(r); pattern == "" {
		unrouted(w, r, h)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// unrouted answers a request that no route serves the way every other
// error is answered, with errorBody: the status the mux's own handler h
// gives it (404, or 405 with its Allow header kept).
func unrouted(w http.ResponseWriter, r *http.Request, h http.Handler) {
	rec := &statusRecorder{header: http.Header{}}
	h.ServeHTTP(rec, r)
	if allow := rec.header.Get("Allow"); allow != "" {
		w.Header().Set("Allow", allow)
	}
	writeError(w, r, rec.status, "%s %s: %s", r.Method, r.URL.Path, strings.ToLower(http.StatusText(rec.status)))
}

// statusRecorder keeps the headers and status a handler writes and drops
// its body.
type statusRecorder struct {
	header http.Header
	status int
}

func (s *statusRecorder) Header() http.Header { return s.header }

func (s *statusRecorder) WriteHeader(status int) {
	if s.status == 0 {
		s.status = status
	}
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return len(b), nil
}

// writeJSON renders one response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error shape; the request id lets a client
// line a failure up with server logs and the slow-query log.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: obs.RequestIDFrom(r.Context()),
	})
}

// handleHealthz is liveness: the process is up (even mid-recovery).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only once WAL replay and warm-start
// finished and the engine is serving. Load balancers gate on this.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.eng() != nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	if msg := s.bootErr.Load(); msg != nil {
		writeError(w, r, http.StatusServiceUnavailable, "engine failed to start: %s", *msg)
		return
	}
	writeError(w, r, http.StatusServiceUnavailable, "engine is starting (recovery in progress)")
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng().statsValue())
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.eng().WriteMetrics(w); err != nil {
		// Headers are gone; all we can do is log the broken scrape.
		log.Printf("ejserve: writing /metrics: %v", err)
	}
}

// handleSlowQueries dumps the slow-query log: recent traces over the
// threshold plus the worst-N ever, with spans and (for explain-traced
// queries) the analyzed plan. ?table=<name> keeps only traces whose
// query text mentions the table; ?min_ms=<n> keeps only traces at least
// that slow.
func (s *server) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	dump := s.eng().SlowQueries()
	table := r.URL.Query().Get("table")
	var minElapsed time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, r, http.StatusBadRequest, "min_ms must be a non-negative number, got %q", v)
			return
		}
		minElapsed = time.Duration(ms * float64(time.Millisecond))
	}
	if table != "" || minElapsed > 0 {
		dump = dump.Filter(table, minElapsed)
	}
	writeJSON(w, http.StatusOK, dump)
}

// handleFeedback dumps the feedback registry: per-join-pair learned
// corrections and q-error, and the regret count.
func (s *server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng().FeedbackDump())
}

func (s *server) handleListTables(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tables": s.eng().Tables()})
}

// createTableRequest ingests one CSV table:
//
//	{"name": "catalog", "schema": "sku:int,name:text", "csv": "sku,name\n1,barbecue\n"}
//
// Alternatively POST /tables?name=catalog&schema=sku:int,name:text with a
// text/csv body. Creating a name that already exists is 409 Conflict
// unless replace is requested ("replace": true, or ?replace=true).
type createTableRequest struct {
	Name    string `json:"name"`
	Schema  string `json:"schema"`
	CSV     string `json:"csv"`
	Replace bool   `json:"replace"`
}

func (s *server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var req createTableRequest
	var csvSrc io.Reader
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		req.Name = r.URL.Query().Get("name")
		req.Schema = r.URL.Query().Get("schema")
		csvSrc = r.Body // stream: no point buffering a large upload
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	} else {
		csvSrc = strings.NewReader(req.CSV)
	}
	if v := r.URL.Query().Get("replace"); v != "" {
		req.Replace = v == "true" || v == "1"
	}
	if req.Name == "" || req.Schema == "" {
		writeError(w, r, http.StatusBadRequest, "name and schema are required")
		return
	}
	schema, err := relational.ParseSchema(req.Schema)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	rows, err := s.eng().RegisterCSV(req.Name, schema, csvSrc, req.Replace)
	switch {
	case errors.Is(err, service.ErrTableExists):
		writeError(w, r, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, service.ErrPersist):
		// The table is live in memory but did not reach disk — a server
		// fault, not a request fault.
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	case err != nil:
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "rows": rows})
}

// upsertRowsRequest mutates rows in place:
//
//	POST /tables/{name}/rows
//	{"key": "sku", "csv": "sku,name\n1,barbecue grill\n"}
//
// Alternatively POST with a text/csv body and ?key=sku. The key column
// decides insert-vs-replace: a row whose key matches a live row replaces
// it (the old row is tombstoned), otherwise it inserts. The batch must
// carry the table's full schema. On a durable engine the batch is WAL-
// logged (fsynced) before it is applied.
type upsertRowsRequest struct {
	Key string `json:"key"`
	CSV string `json:"csv"`
}

func (s *server) handleUpsertRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req upsertRowsRequest
	var csvSrc io.Reader
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
		req.Key = r.URL.Query().Get("key")
		csvSrc = r.Body
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	} else {
		csvSrc = strings.NewReader(req.CSV)
	}
	if req.Key == "" {
		writeError(w, r, http.StatusBadRequest, "key column is required (body \"key\" or ?key=)")
		return
	}
	if !s.eng().HasTable(name) {
		writeError(w, r, http.StatusNotFound, "unknown table %q", name)
		return
	}
	res, err := s.eng().UpsertCSV(r.Context(), name, req.Key, csvSrc)
	if err != nil {
		writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// deleteRowsRequest tombstones rows by key:
//
//	DELETE /tables/{name}/rows
//	{"key": "sku", "keys": ["1", "17"]}
//
// Key values are canonical strings (integers base 10, floats Go 'g',
// times RFC 3339). Unknown keys are reported in "missing", not errors.
type deleteRowsRequest struct {
	Key  string   `json:"key"`
	Keys []string `json:"keys"`
}

func (s *server) handleDeleteRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req deleteRowsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Key == "" {
		writeError(w, r, http.StatusBadRequest, "key column is required")
		return
	}
	if len(req.Keys) == 0 {
		writeError(w, r, http.StatusBadRequest, "keys must be non-empty")
		return
	}
	if !s.eng().HasTable(name) {
		writeError(w, r, http.StatusNotFound, "unknown table %q", name)
		return
	}
	res, err := s.eng().DeleteRows(r.Context(), name, req.Key, req.Keys)
	if err != nil {
		writeMutationError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeMutationError maps a mutation failure: durable-write faults are
// the server's (500), everything else is the request's (400).
func writeMutationError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, service.ErrPersist) {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeError(w, r, http.StatusBadRequest, "%v", err)
}

// handleSnapshot flushes and compacts the durable layer on demand — the
// operator's pre-deploy "make disk current and minimal" button. A
// memory-only engine is 409 (the resource state cannot satisfy the
// request); an I/O failure during flush/compaction is 500.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.eng().snapshotValue()
	if errors.Is(err, service.ErrNotDurable) {
		writeError(w, r, http.StatusConflict, "%v", err)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleDropTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.eng().DropTable(name) {
		writeError(w, r, http.StatusNotFound, "unknown table %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

// queryRequest is the /query body: sqlish text or a structured join.
// "explain": true turns the response into EXPLAIN ANALYZE: the plan tree
// with estimated vs observed cardinality and per-node times, plus the
// full span trace.
type queryRequest struct {
	SQL         string               `json:"sql,omitempty"`
	Join        *service.JoinRequest `json:"join,omitempty"`
	TimeoutMs   int64                `json:"timeout_ms,omitempty"`
	Limit       int                  `json:"limit,omitempty"`
	IncludeRows bool                 `json:"include_rows,omitempty"`
	Explain     bool                 `json:"explain,omitempty"`
}

// queryResponse is the /query result less its matches, which
// writeQueryResponse appends as "matches":[{"left":0,"right":0,"sim":0.5},
// ...]. Plan, PlanText, and Trace appear only on explain requests.
type queryResponse struct {
	RequestID     string             `json:"request_id,omitempty"`
	Strategy      string             `json:"strategy"`
	Rows          []map[string]any   `json:"rows,omitempty"`
	Stats         core.Stats         `json:"stats"`
	PlanCacheHit  bool               `json:"plan_cache_hit"`
	AdmittedBytes int64              `json:"admitted_bytes"`
	ElapsedMs     float64            `json:"elapsed_ms"`
	Plan          *obs.NodeStats     `json:"plan,omitempty"`
	PlanText      string             `json:"plan_text,omitempty"`
	Trace         *obs.TraceSnapshot `json:"trace,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	res, err := s.eng().Query(r.Context(), service.QueryRequest{
		SQL:         req.SQL,
		Join:        req.Join,
		Timeout:     time.Duration(req.TimeoutMs) * time.Millisecond,
		Limit:       req.Limit,
		Materialize: req.IncludeRows,
		Explain:     req.Explain,
	})
	if err != nil {
		writeError(w, r, statusForQueryError(r, err), "%v", err)
		return
	}
	resp := queryResponse{
		RequestID:     res.RequestID,
		Strategy:      res.Strategy,
		Stats:         res.Stats,
		PlanCacheHit:  res.PlanCacheHit,
		AdmittedBytes: res.AdmittedBytes,
		ElapsedMs:     float64(res.Elapsed.Microseconds()) / 1000,
	}
	if req.Explain {
		resp.Plan = res.Plan
		resp.PlanText = res.PlanText
		resp.Trace = res.Trace
	}
	if res.Table != nil {
		resp.Rows = tableRows(res.Table)
	}
	writeQueryResponse(w, &resp, res.Matches)
}

// writeQueryResponse renders a /query reply: the few header and stats
// fields through encoding/json, then the matches — nearly all of the
// bytes — straight from the result, into a pooled buffer sent whole with
// its Content-Length.
func writeQueryResponse(w http.ResponseWriter, resp *queryResponse, matches []core.Match) {
	head, err := json.Marshal(resp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), RequestID: resp.RequestID})
		return
	}
	bp, _ := replyBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	b := slices.Grow((*bp)[:0], len(head)+48*len(matches)+16)
	b = append(append(b, head[:len(head)-1]...), `,"matches":[`...)
	for i, m := range matches {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendMatch(b, m)
	}
	b = append(b, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a client that went away is its own problem
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

// replyBufs holds writeQueryResponse's reply buffers, which the
// ResponseWriter has copied out by the time Write returns, so that a
// reply is not allocated afresh per query; one grown past maxPooledReply
// is left to the collector.
var replyBufs sync.Pool

const maxPooledReply = 1 << 20

// appendMatch appends m exactly as encoding/json renders
// struct{Left, Right int; Sim float32} with lower-case keys.
func appendMatch(b []byte, m core.Match) []byte {
	b = strconv.AppendInt(append(b, `{"left":`...), int64(m.Left), 10)
	b = strconv.AppendInt(append(b, `,"right":`...), int64(m.Right), 10)
	b = append(b, `,"sim":`...)
	// encoding/json's float32 rule: shortest text that round-trips,
	// exponent form outside [1e-6, 1e21), a one-digit exponent unpadded.
	// JSON has no NaN or infinity; neither is a cosine: null.
	switch abs := float32(math.Abs(float64(m.Sim))); {
	case abs != abs || abs > math.MaxFloat32:
		b = append(b, "null"...)
	case abs != 0 && (abs < 1e-6 || abs >= 1e21):
		b = strconv.AppendFloat(b, float64(m.Sim), 'e', -1, 32)
		if n := len(b); b[n-4] == 'e' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	default:
		b = strconv.AppendFloat(b, float64(m.Sim), 'f', -1, 32)
	}
	return append(b, '}')
}

// statusForQueryError maps engine failures to HTTP statuses: request
// faults (parse, bind, spec validation — service.IsBadRequest) are 400,
// server-imposed deadlines 504, client disconnects 400, anything else —
// execution failures, materialization — 500.
func statusForQueryError(r *http.Request, err error) int {
	switch {
	case r.Context().Err() != nil:
		return http.StatusBadRequest // client went away
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case service.IsBadRequest(err):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// tableRows renders a materialized result table as JSON objects.
func tableRows(t *relational.Table) []map[string]any {
	out := make([]map[string]any, t.NumRows())
	schema := t.Schema()
	for r := 0; r < t.NumRows(); r++ {
		row := make(map[string]any, len(schema))
		for c, f := range schema {
			switch col := t.ColumnAt(c).(type) {
			case relational.Int64Column:
				row[f.Name] = col[r]
			case relational.Float64Column:
				row[f.Name] = col[r]
			case relational.StringColumn:
				row[f.Name] = col[r]
			case relational.BoolColumn:
				row[f.Name] = col[r]
			case relational.TimeColumn:
				row[f.Name] = col[r].Format(time.RFC3339)
			case *relational.VectorColumn:
				row[f.Name] = col.Row(r)
			}
		}
		out[r] = row
	}
	return out
}
