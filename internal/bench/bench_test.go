package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func quickConfig() Config {
	return Config{Scale: 1, Threads: 2, Seed: 42, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "costmodel",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17",
		"fp16", "modelcache", "cache", "serve", "shard", "persist", "blocksize", "hnswrecall", "ivf",
		"quant", "mutate", "tune",
	}
	names := map[string]bool{}
	for _, e := range Registry() {
		names[e.Name] = true
		if e.Paper == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("experiment %q missing from registry", n)
		}
	}
	if len(Registry()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Registry()), len(want))
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("fig8"); !ok {
		t.Error("fig8 not found")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unexpected experiment found")
	}
}

func TestConfigSize(t *testing.T) {
	cfg := Config{Scale: 1}
	if cfg.size(100) != 100 {
		t.Errorf("size = %d", cfg.size(100))
	}
	cfg.Scale = 2
	if cfg.size(100) != 200 {
		t.Errorf("scaled size = %d", cfg.size(100))
	}
	cfg = Config{Scale: 1, Quick: true}
	if cfg.size(800) != 100 {
		t.Errorf("quick size = %d", cfg.size(800))
	}
	if cfg.size(1) != 4 {
		t.Errorf("size floor = %d", cfg.size(1))
	}
	cfg = Config{}
	if cfg.size(50) != 50 {
		t.Errorf("zero scale should default to 1: %d", cfg.size(50))
	}
}

func TestTableFormatting(t *testing.T) {
	tab := newTable("A", "LongHeader")
	tab.addRow("x", "1")
	tab.addRow("longervalue", "2")
	var buf bytes.Buffer
	tab.print(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "A") || !strings.Contains(lines[0], "LongHeader") {
		t.Errorf("header line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator line: %q", lines[1])
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.5" {
		t.Errorf("ms = %q", got)
	}
	if got := nsPerElem(time.Second, 0); got != "-" {
		t.Errorf("nsPerElem(0) = %q", got)
	}
	if got := nsPerElem(time.Microsecond, 1000); got != "1.000" {
		t.Errorf("nsPerElem = %q", got)
	}
	if got := ratio(4, 2); got != "2.00x" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(1, 0); got != "-" {
		t.Errorf("ratio/0 = %q", got)
	}
	if got := fmtBytes(512); got != "512 B" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(2 << 20); !strings.Contains(got, "MiB") {
		t.Errorf("fmtBytes MiB = %q", got)
	}
	if got := fmtBytes(3 << 30); !strings.Contains(got, "GiB") {
		t.Errorf("fmtBytes GiB = %q", got)
	}
	if got := fmtBytes(4 << 10); !strings.Contains(got, "KiB") {
		t.Errorf("fmtBytes KiB = %q", got)
	}
}

// TestEveryExperimentRunsQuick executes the full registry at Quick scale:
// the integration test that every figure/table regenerates end to end.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick bench suite skipped in -short mode")
	}
	cfg := quickConfig()
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunOne(&buf, e, cfg); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.Name, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.Paper) {
				t.Errorf("%s: banner missing", e.Name)
			}
			if len(out) < 100 {
				t.Errorf("%s: suspiciously short output:\n%s", e.Name, out)
			}
		})
	}
}

func TestTable2OutputShape(t *testing.T) {
	e, _ := Get("table2")
	var buf bytes.Buffer
	if err := e.Run(&buf, quickConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, q := range []string{"dbms", "postgres", "clothes"} {
		if !strings.Contains(out, q) {
			t.Errorf("table2 missing query word %q:\n%s", q, out)
		}
	}
	if !strings.Contains(out, "rdbms") {
		t.Errorf("table2 missing expected neighbor:\n%s", out)
	}
}

func TestCostModelOutputShape(t *testing.T) {
	e, _ := Get("costmodel")
	var buf bytes.Buffer
	if err := e.Run(&buf, quickConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Naive E-NLJ") || !strings.Contains(out, "Prefetch E-NLJ") {
		t.Errorf("costmodel rows missing:\n%s", out)
	}
	if !strings.Contains(out, "Results identical") {
		t.Errorf("costmodel equivalence line missing:\n%s", out)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is covered per-experiment; skip duplicate work in -short mode")
	}
	// RunAll is exercised by TestEveryExperimentRunsQuick per experiment;
	// here only verify the error path wiring with a tiny subset by calling
	// RunOne on the cheapest experiment.
	e, _ := Get("table2")
	var buf bytes.Buffer
	if err := RunOne(&buf, e, quickConfig()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "completed in") {
		t.Error("RunOne banner missing")
	}
}
