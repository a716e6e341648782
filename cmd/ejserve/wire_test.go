package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"ejoin/internal/core"
)

// matchJSON is what a match was on the wire when reflection wrote it,
// and what clients decode it into.
type matchJSON struct {
	Left  int     `json:"left"`
	Right int     `json:"right"`
	Sim   float32 `json:"sim"`
}

// checkMatchText holds appendMatch to encoding/json's bytes for the same
// match. JSON cannot carry NaN or an infinity; those go out as null.
func checkMatchText(t *testing.T, m core.Match) {
	t.Helper()
	got := string(appendMatch(nil, m))
	if f := float64(m.Sim); math.IsNaN(f) || math.IsInf(f, 0) {
		if !strings.HasSuffix(got, `"sim":null}`) || !json.Valid([]byte(got)) {
			t.Fatalf("non-finite sim %v rendered as %s", m.Sim, got)
		}
		return
	}
	want, err := json.Marshal(matchJSON{Left: m.Left, Right: m.Right, Sim: m.Sim})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("match %+v (sim bits %#08x): got %s, encoding/json writes %s", m, math.Float32bits(m.Sim), got, want)
	}
}

func TestMatchTextEqualsEncodingJSON(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, sim := range []float32{
		0, negZero, 1, -1, 0.8, 0.85, 0.80000001, 0.35, 1.0000001, 0.99999994,
		1e-6, math.Nextafter32(1e-6, 0), 9.9e-7, 1e-7, -1e-7, 1.5e-10, math.SmallestNonzeroFloat32,
		1e21, math.Nextafter32(1e21, 0), 1.5e21, -1e21, 1e20, math.MaxFloat32, 123456.79,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		checkMatchText(t, core.Match{Left: 3, Right: 1023, Sim: sim})
	}
	checkMatchText(t, core.Match{Left: 0, Right: 0, Sim: 0.5})
	checkMatchText(t, core.Match{Left: math.MaxInt32, Right: -1, Sim: 0.5})
}

func FuzzMatchTextEqualsEncodingJSON(f *testing.F) {
	for _, bits := range []uint32{0, 0x80000000, 0x3f4ccccd, 0x358637bd, 0x358637bc, 0x60ad78ec, 0x60ad78eb, 0x7f800000, 0x7fc00000, 1} {
		f.Add(bits, 7, 9)
	}
	f.Fuzz(func(t *testing.T, bits uint32, left, right int) {
		checkMatchText(t, core.Match{Left: left, Right: right, Sim: math.Float32frombits(bits)})
	})
}

// TestQueryReplyDecodesAsBefore: the hand-written reply is compact JSON
// that decodes into the struct shape clients have always used, matches
// and header fields alike, and an empty result is [] rather than null;
// it is sent whole, with its Content-Length, also the second, shorter
// reply, which may be written into the first one's buffer.
func TestQueryReplyDecodesAsBefore(t *testing.T) {
	ts := newTestServer(t)
	ingestPair(t, ts)
	type reply struct {
		RequestID    string      `json:"request_id"`
		Strategy     string      `json:"strategy"`
		Matches      []matchJSON `json:"matches"`
		Stats        core.Stats  `json:"stats"`
		PlanCacheHit bool        `json:"plan_cache_hit"`
		PlanText     string      `json:"plan_text"`
	}
	query := func(sql string, explain bool) (reply, []byte) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"sql": sql, "explain": explain})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v: %s", resp.StatusCode, err, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("Content-Length %d, transfer encoding %v, for a %d-byte reply", resp.ContentLength, resp.TransferEncoding, len(raw))
		}
		var r reply
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("decoding reply: %v\n%s", err, raw)
		}
		return r, raw
	}

	const sql = "SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35"
	r, raw := query(sql, false)
	if len(r.Matches) == 0 || r.Strategy == "" || r.RequestID == "" || r.Stats.Comparisons != 12 {
		t.Fatalf("reply lost fields: %+v", r)
	}
	for n, m := range r.Matches {
		if m.Sim < 0.35 || m.Sim > 1.0001 || m.Left < 0 || m.Left > 2 || m.Right < 0 || m.Right > 3 {
			t.Errorf("match %d decoded as %+v", n, m)
		}
	}
	if bytes.Contains(raw, []byte("\n ")) || !bytes.HasSuffix(raw, []byte("}\n")) {
		t.Errorf("reply is not one compact line:\n%s", raw)
	}
	// Match for match what reflection would have written.
	want, _ := json.Marshal(r.Matches)
	if !bytes.Contains(raw, append([]byte(`"matches":`), want...)) {
		t.Errorf("matches differ from encoding/json's rendering %s in\n%s", want, raw)
	}

	if r, raw := query("SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.9999", true); r.Matches == nil ||
		len(r.Matches) != 0 || !bytes.Contains(raw, []byte(`"matches":[]`)) || r.PlanText == "" {
		t.Errorf("empty explain reply: %+v\n%s", r, raw)
	}
}
