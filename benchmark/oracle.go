package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ejoin/internal/model"
)

// The oracle is a brute-force F32 join over the same hash-embedder
// output the server uses: every pair's cosine similarity, computed with a
// plain float64 loop, decides what a query must return. It shares no code
// with the engine beyond the model itself.

// simEps is the tolerance for float32 kernel rounding: a pair whose
// similarity is within simEps of the threshold (or of the k-th best) may
// be present or absent, and a reported similarity may differ from the
// oracle's by at most this much.
const simEps = 1e-5

type oracle struct {
	m   model.Model
	emb map[string][]float32
	// sims caches the similarity matrix of a static table pair.
	sims map[string][]float64
}

func newOracle() (*oracle, error) {
	m, err := model.NewHashEmbedder(embedDim)
	if err != nil {
		return nil, err
	}
	return &oracle{m: m, emb: make(map[string][]float32), sims: make(map[string][]float64)}, nil
}

func (o *oracle) embed(s string) ([]float32, error) {
	if v, ok := o.emb[s]; ok {
		return v, nil
	}
	v, err := o.m.Embed(s)
	if err != nil {
		return nil, err
	}
	o.emb[s] = v
	return v, nil
}

// simMatrix returns sim[i*len(right)+j] for every pair. cacheKey "" skips
// the cache (tables that change between checks).
func (o *oracle) simMatrix(cacheKey string, left, right []row) ([]float64, error) {
	if s, ok := o.sims[cacheKey]; ok && cacheKey != "" {
		return s, nil
	}
	le := make([][]float32, len(left))
	re := make([][]float32, len(right))
	var err error
	for i, r := range left {
		if le[i], err = o.embed(r.Name); err != nil {
			return nil, err
		}
	}
	for j, r := range right {
		if re[j], err = o.embed(r.Name); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(left)*len(right))
	for i, a := range le {
		for j, b := range re {
			var dot float64
			for d := range a {
				dot += float64(a[d]) * float64(b[d])
			}
			out[i*len(right)+j] = dot // embeddings are unit-norm: dot is cosine
		}
	}
	if cacheKey != "" {
		o.sims[cacheKey] = out
	}
	return out, nil
}

// pair is one returned match, keyed by the rows' id column.
type pair struct {
	L, R int64
	Sim  float64
}

// queryReply is the part of a /query response the benchmark reads.
type queryReply struct {
	Matches []struct {
		Left  int64   `json:"left"`
		Right int64   `json:"right"`
		Sim   float64 `json:"sim"`
	} `json:"matches"`
	Rows []struct {
		LID   int64  `json:"l_id"`
		LName string `json:"l_name"`
		LAttr int64  `json:"l_attr"`
		RID   int64  `json:"r_id"`
	} `json:"rows"`
}

// pairs extracts the reply's matches keyed by id. Generated tables are
// ingested with id == row position, so a match's row offsets are ids; once
// a table has been mutated offsets are physical positions, and the ids
// come from the materialized rows instead.
func (q *queryReply) pairs(fromRows bool) ([]pair, error) {
	out := make([]pair, len(q.Matches))
	if fromRows && len(q.Rows) != len(q.Matches) {
		return nil, fmt.Errorf("%d rows for %d matches", len(q.Rows), len(q.Matches))
	}
	for i, m := range q.Matches {
		out[i] = pair{L: m.Left, R: m.Right, Sim: m.Sim}
		if fromRows {
			out[i].L, out[i].R = q.Rows[i].LID, q.Rows[i].RID
		}
	}
	return out, nil
}

// check verifies one reply against brute force. left and right are the
// tables' visible rows sorted by id; cacheKey names a static table pair
// ("" when the tables mutate). got must be in the server's order when
// limit > 0 (only static tables use limits, where that order is id order).
func (o *oracle) check(spec *querySpec, limit int, cacheKey string, left, right []row, got []pair) error {
	sims, err := o.simMatrix(cacheKey, left, right)
	if err != nil {
		return err
	}
	if limit == 0 {
		sort.Slice(got, func(a, b int) bool {
			if got[a].L != got[b].L {
				return got[a].L < got[b].L
			}
			return got[a].R < got[b].R
		})
	}
	if spec.K > 0 {
		return checkTopK(spec, sims, left, right, got)
	}
	return checkThreshold(spec, limit, sims, left, right, got)
}

func checkThreshold(spec *querySpec, limit int, sims []float64, left, right []row, got []pair) error {
	if limit > 0 && len(got) > limit {
		return fmt.Errorf("%d matches exceed limit %d", len(got), limit)
	}
	next := 0
	for i, l := range left {
		if spec.AttrLT > 0 && l.Attr >= spec.AttrLT {
			continue
		}
		for j, r := range right {
			if limit > 0 && next == limit {
				return nil // truncated stream: nothing after the cut is owed
			}
			s := sims[i*len(right)+j]
			if next < len(got) && got[next].L == l.ID && got[next].R == r.ID {
				if s < spec.Thr-simEps {
					return fmt.Errorf("spurious match (%d,%d): sim %.6f < %.6f", l.ID, r.ID, s, spec.Thr)
				}
				if math.Abs(got[next].Sim-s) > simEps {
					return fmt.Errorf("match (%d,%d) reports sim %.6f, oracle %.6f", l.ID, r.ID, got[next].Sim, s)
				}
				next++
			} else if s >= spec.Thr+simEps {
				return fmt.Errorf("missing match (%d,%d): sim %.6f >= %.6f", l.ID, r.ID, s, spec.Thr)
			}
		}
	}
	if next != len(got) {
		return fmt.Errorf("match (%d,%d) is out of order, duplicated, or names a row that is not visible", got[next].L, got[next].R)
	}
	return nil
}

func checkTopK(spec *querySpec, sims []float64, left, right []row, got []pair) error {
	want := spec.K
	if want > len(right) {
		want = len(right)
	}
	rpos := make(map[int64]int, len(right))
	for j, r := range right {
		rpos[r.ID] = j
	}
	sorted := make([]float64, len(right))
	next := 0
	for i, l := range left {
		if spec.AttrLT > 0 && l.Attr >= spec.AttrLT {
			continue
		}
		rowSims := sims[i*len(right) : (i+1)*len(right)]
		copy(sorted, rowSims)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		kth := math.Inf(-1)
		if want > 0 {
			kth = sorted[want-1]
		}
		// floor is what a returned pair must reach; sure is what forces
		// a pair into the answer.
		floor, sure := kth-simEps, kth+simEps
		if spec.HasThr {
			floor, sure = math.Max(floor, spec.Thr-simEps), math.Max(sure, spec.Thr+simEps)
		}
		returned := make(map[int]bool, want)
		for ; next < len(got) && got[next].L == l.ID; next++ {
			j, ok := rpos[got[next].R]
			if !ok {
				return fmt.Errorf("top-k match (%d,%d) names a right row that is not visible", l.ID, got[next].R)
			}
			if returned[j] {
				return fmt.Errorf("top-k match (%d,%d) returned twice", l.ID, got[next].R)
			}
			returned[j] = true
			if rowSims[j] < floor {
				return fmt.Errorf("top-k match (%d,%d): sim %.6f below the k-th best %.6f", l.ID, got[next].R, rowSims[j], kth)
			}
			if math.Abs(got[next].Sim-rowSims[j]) > simEps {
				return fmt.Errorf("top-k match (%d,%d) reports sim %.6f, oracle %.6f", l.ID, got[next].R, got[next].Sim, rowSims[j])
			}
		}
		if len(returned) > want || (!spec.HasThr && len(returned) != want) {
			return fmt.Errorf("left row %d has %d matches, want %d", l.ID, len(returned), want)
		}
		for j, s := range rowSims {
			if s > sure && !returned[j] {
				return fmt.Errorf("left row %d misses right row %d: sim %.6f above the k-th best %.6f", l.ID, right[j].ID, s, kth)
			}
		}
	}
	if next != len(got) {
		return fmt.Errorf("match (%d,%d) is out of order or names a left row that is not visible", got[next].L, got[next].R)
	}
	return nil
}

// checkReply parses a /query body and checks it. fromRows takes ids from
// the materialized rows (mutated tables).
func (o *oracle) checkReply(body []byte, q op, cacheKey string, left, right []row, fromRows bool) error {
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	got, err := reply.pairs(fromRows)
	if err != nil {
		return err
	}
	return o.check(q.spec, q.Limit, cacheKey, left, right, got)
}

// checkVisible verifies that a TOPK 1 reply with materialized rows lists
// exactly the model's live rows on its left side, column for column:
// every acknowledged write visible, nothing deleted still there.
func checkVisible(body []byte, live map[int64]row) error {
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	seen := make(map[int64]bool, len(reply.Rows))
	for _, r := range reply.Rows {
		want, ok := live[r.LID]
		if !ok {
			return fmt.Errorf("row id %d is visible but the model has deleted it (or never wrote it)", r.LID)
		}
		if want.Name != r.LName || want.Attr != r.LAttr {
			return fmt.Errorf("row id %d is (%q,%d), model says (%q,%d)", r.LID, r.LName, r.LAttr, want.Name, want.Attr)
		}
		seen[r.LID] = true
	}
	for id := range live {
		if !seen[id] {
			return fmt.Errorf("acknowledged row id %d is not visible", id)
		}
	}
	return nil
}

// liveRows flattens a model table into rows sorted by id.
func liveRows(live map[int64]row) []row {
	out := make([]row, 0, len(live))
	for _, r := range live {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
