package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envelope is the one result shape every run writes: the environment,
// then per workload its sizes and flags and {metric, unit, value,
// samples} rows. -compare reads two of these.
type envelope struct {
	Commit           string           `json:"commit"`
	GoVersion        string           `json:"go_version"`
	CPU              string           `json:"cpu_model"`
	NProc            int              `json:"nproc"`
	ServerGOMAXPROCS int              `json:"server_gomaxprocs"`
	Clients          int              `json:"clients"`
	Seed             int64            `json:"seed"`
	Seconds          int              `json:"seconds"`
	Runs             int              `json:"runs"`
	Workloads        []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string      `json:"name"`
	Why       string      `json:"why"`
	Sizes     string      `json:"sizes"`
	Flags     []string    `json:"flags"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Correct   bool        `json:"correct"`
	Metrics   []metricRow `json:"metrics"`
}

// metricRow is one metric of one workload. Value is the median over the
// runs; Values keeps each run's reading so -compare can see the spread.
type metricRow struct {
	Metric  string    `json:"metric"`
	Kind    string    `json:"kind"` // end_to_end or per_layer
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Values  []float64 `json:"values"`
}

func newEnvelope(p paths, seed int64, seconds, runs int) *envelope {
	return &envelope{
		Commit:           gitCommit(p.root),
		GoVersion:        runtime.Version(),
		CPU:              cpuModel(),
		NProc:            runtime.NumCPU(),
		ServerGOMAXPROCS: serverProcs,
		Clients:          serverProcs,
		Seed:             seed,
		Seconds:          seconds,
		Runs:             runs,
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git repository
// (the driver's checkouts are plain directories).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// add folds one run into the workload's rows.
func (w *workloadResult) add(r *runResult) {
	w.Attempted += r.attempted
	w.Failed += r.failed
	if r.failed > 0 {
		w.Correct = false
	}
	for _, k := range []struct {
		kind string
		defs []metricDef
	}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
		for _, d := range k.defs {
			v, ok := r.metrics[d.Name]
			if !ok {
				continue
			}
			row := w.row(d, k.kind)
			row.Values = append(row.Values, v.Value)
			row.Value = median(row.Values)
			row.Samples += v.Samples
		}
	}
}

func (w *workloadResult) row(d metricDef, kind string) *metricRow {
	for i := range w.Metrics {
		if w.Metrics[i].Metric == d.Name {
			return &w.Metrics[i]
		}
	}
	w.Metrics = append(w.Metrics, metricRow{Metric: d.Name, Kind: kind, Unit: d.Unit})
	return &w.Metrics[len(w.Metrics)-1]
}

// print writes the workload's metrics by name with their units.
func (w *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: %d ops attempted, %d failed (fail_ratio %.6f), %d run(s)\n",
		w.Name, w.Attempted, w.Failed, ratio(float64(w.Failed), float64(w.Attempted)), w.runs())
	for _, row := range w.Metrics { // add appends them in definition order
		fmt.Fprintf(out, "%-34s %14.4f %-8s (n=%d)\n", row.Metric, row.Value, row.Unit, row.Samples)
	}
}

func (w *workloadResult) runs() int {
	if len(w.Metrics) == 0 {
		return 0
	}
	return len(w.Metrics[0].Values)
}

func (e *envelope) write(path string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}
