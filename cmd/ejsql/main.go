// Command ejsql executes declarative hybrid vector-relational queries over
// CSV files:
//
//	ejsql \
//	  -table 'catalog=catalog.csv;sku:int,name:text' \
//	  -table 'feed=feed.csv;title:text,ingested:time' \
//	  -query "SELECT * FROM catalog JOIN feed
//	          ON SIM(catalog.name, feed.title) >= 0.6
//	          WHERE feed.ingested > '2023-02-10'"
//
// Each -table flag is name=path;schema where schema is col:type pairs
// (types: int, float, text, time, bool). The join condition is SIM(...) >=
// τ for threshold joins or TOPK(a.col, b.col, k) for top-k joins. Output is
// CSV: the matched rows (left columns prefixed l_, right r_) plus a
// similarity column.
//
// ejsql is a one-shot client of service.Engine: the query runs through the
// same lifecycle (binder, planner, admission, executor) as one sent to
// ejserve.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ejoin/internal/model"
	"ejoin/internal/obs"
	"ejoin/internal/relational"
	"ejoin/internal/service"
)

// tableFlags accumulates repeated -table flags.
type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, " ") }

func (t *tableFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var tables tableFlags
	flag.Var(&tables, "table", "table spec name=path;col:type,... (repeatable)")
	query := flag.String("query", "", "query text")
	dim := flag.Int("dim", 100, "embedding dimensionality")
	explain := flag.Bool("explain", false, "print EXPLAIN ANALYZE (plan tree with est vs obs cardinality, per-node times, and spans) to stderr")
	flag.Parse()

	if err := run(tables, *query, *dim, *explain, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ejsql:", err)
		os.Exit(1)
	}
}

// run executes the query, writing CSV to out and (when explain is set)
// the EXPLAIN ANALYZE report to errOut so the result stays pipeable.
func run(tables []string, query string, dim int, explain bool, out, errOut io.Writer) error {
	if query == "" {
		return fmt.Errorf("-query is required")
	}
	if len(tables) == 0 {
		return fmt.Errorf("at least one -table is required")
	}
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		return err
	}
	// One query at a time, so its operators get every core (Threads
	// defaults to GOMAXPROCS/MaxConcurrent).
	eng, err := service.NewEngine(service.Config{Model: m, MaxConcurrent: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, spec := range tables {
		if err := loadTable(eng, spec); err != nil {
			return err
		}
	}
	res, err := eng.Query(context.Background(), service.QueryRequest{SQL: query, Materialize: true, Explain: explain})
	if err != nil {
		return err
	}
	if explain {
		printExplain(errOut, res)
	}
	return relational.WriteCSV(out, res.Table)
}

// printExplain renders the analyzed plan and span timeline.
func printExplain(w io.Writer, res *service.QueryResult) {
	fmt.Fprintf(w, "-- EXPLAIN ANALYZE (strategy=%s, elapsed=%s)\n", res.Strategy, res.Elapsed)
	fmt.Fprint(w, res.PlanText)
	for _, sp := range res.Trace.Spans {
		line := fmt.Sprintf("-- span %-12s start=%-10s dur=%s", sp.Name, sp.Start, sp.Dur)
		if detail := obs.AttrsDetail(sp.Attrs); detail != "" {
			line += "  " + detail
		}
		fmt.Fprintln(w, line)
	}
}

// loadTable parses one -table spec and registers the CSV it names.
func loadTable(eng *service.Engine, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return fmt.Errorf("table spec %q: want name=path;schema", spec)
	}
	path, schemaSpec, ok := strings.Cut(rest, ";")
	if !ok {
		return fmt.Errorf("table spec %q: missing ;schema part", spec)
	}
	schema, err := relational.ParseSchema(schemaSpec)
	if err != nil {
		return fmt.Errorf("table %q: %w", name, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// A repeated name replaces the earlier table, as a later flag should.
	if _, err := eng.RegisterCSV(name, schema, f, true); err != nil {
		return fmt.Errorf("table %q: %w", name, err)
	}
	return nil
}
