package sqlish

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
)

// Catalog maps table names to tables for binding. It is safe for
// concurrent use: a long-lived process registers and drops tables while
// other goroutines bind and run queries against it.
type Catalog struct {
	mu     sync.RWMutex
	gen    uint64
	tables map[string]*relational.Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*relational.Table{}}
}

// Register adds a named table (case-insensitive name), replacing any
// previous binding and advancing the catalog generation.
func (c *Catalog) Register(name string, t *relational.Table) {
	c.mu.Lock()
	c.tables[strings.ToLower(name)] = t
	c.gen++
	c.mu.Unlock()
}

// RegisterIfAbsent adds a named table only if the name is free,
// reporting whether it registered. The check and the registration are
// one critical section, so two concurrent create-mode ingests of the
// same name cannot both succeed.
func (c *Catalog) RegisterIfAbsent(name string, t *relational.Table) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := strings.ToLower(name)
	if _, ok := c.tables[k]; ok {
		return false
	}
	c.tables[k] = t
	c.gen++
	return true
}

// Replace swaps the binding of an existing name to a new table WITHOUT
// advancing the catalog generation, reporting whether the name existed.
// This is the row-level (MVCC) update path: the table's identity and
// schema are unchanged, only its row content moved to a newer generation,
// so prepared plans bound against the name remain valid — the service
// re-pins each query to the table's current version at execution time.
// Schema changes must go through Register/Drop, which do invalidate.
func (c *Catalog) Replace(name string, t *relational.Table) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := strings.ToLower(name)
	if _, ok := c.tables[k]; !ok {
		return false
	}
	c.tables[k] = t
	return true
}

// Drop removes a named table, reporting whether it existed. Dropping
// advances the catalog generation, invalidating prepared queries bound
// against the old contents.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := strings.ToLower(name)
	if _, ok := c.tables[k]; !ok {
		return false
	}
	delete(c.tables, k)
	c.gen++
	return true
}

// Get returns a registered table (case-insensitive name).
func (c *Catalog) Get(name string) (*relational.Table, bool) {
	c.mu.RLock()
	t, ok := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	return t, ok
}

// Names lists the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len is the number of registered tables.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tables)
}

// Generation counts catalog mutations. A Prepared query carries the
// generation it was bound under; a mismatch means the binding may be
// stale (table replaced or dropped) and the query must be re-prepared.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// lookup finds a registered table.
func (c *Catalog) lookup(name string) (*relational.Table, error) {
	t, ok := c.Get(name)
	if !ok {
		return nil, fmt.Errorf("sqlish: unknown table %q", name)
	}
	return t, nil
}

// Bind resolves a parsed statement against the catalog into an executable
// Query using the given embedding model.
func Bind(stmt *Stmt, c *Catalog, m model.Model) (plan.Query, error) {
	var q plan.Query
	leftTbl, err := c.lookup(stmt.LeftTable)
	if err != nil {
		return q, err
	}
	rightTbl, err := c.lookup(stmt.RightTable)
	if err != nil {
		return q, err
	}

	// The ON clause may name the columns in either order.
	lc, rc := stmt.Join.LeftCol, stmt.Join.RightCol
	if strings.EqualFold(lc.Table, stmt.RightTable) && strings.EqualFold(rc.Table, stmt.LeftTable) {
		lc, rc = rc, lc
	}
	if !strings.EqualFold(lc.Table, stmt.LeftTable) || !strings.EqualFold(rc.Table, stmt.RightTable) {
		return q, fmt.Errorf("sqlish: join columns %s, %s do not match FROM tables %s, %s",
			stmt.Join.LeftCol, stmt.Join.RightCol, stmt.LeftTable, stmt.RightTable)
	}

	q.Left = plan.TableRef{Name: stmt.LeftTable, Table: leftTbl}
	q.Right = plan.TableRef{Name: stmt.RightTable, Table: rightTbl}
	if err := BindJoinColumn(&q.Left, lc.Column); err != nil {
		return q, fmt.Errorf("sqlish: %w", err)
	}
	if err := BindJoinColumn(&q.Right, rc.Column); err != nil {
		return q, fmt.Errorf("sqlish: %w", err)
	}
	q.Model = m

	if stmt.Join.TopK > 0 {
		q.Join = plan.JoinSpec{Kind: plan.TopKJoin, K: stmt.Join.TopK, Threshold: -2}
		if stmt.Join.HasThreshold {
			q.Join.Threshold = float32(stmt.Join.Threshold)
		}
	} else {
		q.Join = plan.JoinSpec{Kind: plan.ThresholdJoin, Threshold: float32(stmt.Join.Threshold)}
	}

	for _, pred := range stmt.Where {
		rel, side, err := bindPred(pred, stmt, leftTbl, rightTbl)
		if err != nil {
			return q, err
		}
		if side == 0 {
			q.Left.Predicates = append(q.Left.Predicates, rel)
		} else {
			q.Right.Predicates = append(q.Right.Predicates, rel)
		}
	}
	return q, nil
}

// BindJoinColumn makes column of ref's table its join column, the TEXT
// column E_µ embeds. It is the one join-column rule: SQL statements and
// structured join requests both bind through it. Its errors carry no
// package prefix: each front end adds its own ("sqlish: ", "service: ").
func BindJoinColumn(ref *plan.TableRef, column string) error {
	idx := ref.Table.Schema().IndexOf(column)
	if idx < 0 {
		return fmt.Errorf("table %q has no column %q", ref.Name, column)
	}
	if typ := ref.Table.Schema()[idx].Type; typ != relational.String {
		return fmt.Errorf("join column %s.%s must be TEXT, is %v", ref.Name, column, typ)
	}
	ref.TextColumn = column
	return nil
}

var opMap = map[string]relational.CmpOp{
	"=":  relational.EQ,
	"!=": relational.NE,
	"<":  relational.LT,
	"<=": relational.LE,
	">":  relational.GT,
	">=": relational.GE,
}

// bindPred converts one WHERE conjunct; side 0 = left table, 1 = right.
func bindPred(pr PredExpr, stmt *Stmt, leftTbl, rightTbl *relational.Table) (relational.Pred, int, error) {
	var tbl *relational.Table
	var side int
	switch {
	case strings.EqualFold(pr.Col.Table, stmt.LeftTable):
		tbl, side = leftTbl, 0
	case strings.EqualFold(pr.Col.Table, stmt.RightTable):
		tbl, side = rightTbl, 1
	default:
		return relational.Pred{}, 0, fmt.Errorf("sqlish: predicate table %q not in FROM clause", pr.Col.Table)
	}
	idx := tbl.Schema().IndexOf(pr.Col.Column)
	if idx < 0 {
		return relational.Pred{}, 0, fmt.Errorf("sqlish: table %q has no column %q", pr.Col.Table, pr.Col.Column)
	}
	op, ok := opMap[pr.Op]
	if !ok {
		return relational.Pred{}, 0, fmt.Errorf("sqlish: unknown operator %q", pr.Op)
	}
	value, err := literalFor(tbl.Schema()[idx].Type, pr)
	if err != nil {
		return relational.Pred{}, 0, fmt.Errorf("sqlish: predicate on %s: %w", pr.Col, err)
	}
	return relational.Pred{Column: pr.Col.Column, Op: op, Value: value}, side, nil
}

// literalFor coerces the parsed literal to the column's value type.
func literalFor(t relational.Type, pr PredExpr) (any, error) {
	switch t {
	case relational.Int64:
		if !pr.IsNumber || !pr.IsInteger {
			return nil, fmt.Errorf("BIGINT column needs an integer literal")
		}
		return pr.Int, nil
	case relational.Float64:
		if !pr.IsNumber {
			return nil, fmt.Errorf("DOUBLE column needs a numeric literal")
		}
		return pr.Number, nil
	case relational.String:
		if pr.IsNumber {
			return nil, fmt.Errorf("TEXT column needs a string literal")
		}
		return pr.Str, nil
	case relational.Bool:
		switch strings.ToLower(pr.Str) {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		return nil, fmt.Errorf("BOOLEAN column needs 'true' or 'false'")
	case relational.Time:
		if pr.IsNumber {
			return nil, fmt.Errorf("TIMESTAMP column needs a string literal")
		}
		ts, err := parseAnyTime(pr.Str)
		if err != nil {
			return nil, err
		}
		return ts, nil
	default:
		return nil, fmt.Errorf("unsupported predicate column type %v", t)
	}
}

func parseAnyTime(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if ts, err := time.Parse(layout, s); err == nil {
			return ts, nil
		}
	}
	return time.Time{}, fmt.Errorf("cannot parse timestamp %q", s)
}

// Prepared is a parsed and bound query: the parse+bind cost is paid once
// per distinct query text, after which the same binding is planned and
// executed any number of times (optimization stays per-execution, because
// the physical strategy depends on cache warmth). A Prepared is immutable
// and safe for concurrent use.
type Prepared struct {
	// Text is the original query text.
	Text string
	// Stmt is the parse tree.
	Stmt  *Stmt
	query plan.Query
	gen   uint64
}

// Prepare parses input and binds it against the catalog, capturing the
// catalog generation so callers can detect stale bindings.
func Prepare(input string, c *Catalog, m model.Model) (*Prepared, error) {
	gen := c.Generation()
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	q, err := Bind(stmt, c, m)
	if err != nil {
		return nil, err
	}
	return &Prepared{Text: input, Stmt: stmt, query: q, gen: gen}, nil
}

// Query returns the bound query (a copy; the Prepared stays immutable).
func (p *Prepared) Query() plan.Query { return p.query }

// Generation is the catalog generation the binding was taken under.
func (p *Prepared) Generation() uint64 { return p.gen }
