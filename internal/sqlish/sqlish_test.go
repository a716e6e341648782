package sqlish

import (
	"context"
	"strings"
	"testing"
	"time"

	"ejoin/internal/model"
	"ejoin/internal/plan"
	"ejoin/internal/relational"
)

func TestLex(t *testing.T) {
	toks, err := lex("SELECT * FROM a JOIN b ON SIM(a.x, b.y) >= 0.6 WHERE a.d > '2023-01-01' AND b.k != 3")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF")
	}
	// Spot checks.
	if toks[0].text != "SELECT" || toks[1].text != "*" {
		t.Errorf("head tokens: %v %v", toks[0], toks[1])
	}
	found := map[string]bool{}
	for _, tok := range toks {
		found[tok.text] = true
	}
	for _, want := range []string{">=", "!=", "0.6", "2023-01-01", "SIM"} {
		if !found[want] {
			t.Errorf("token %q missing", want)
		}
	}
	_ = kinds
}

func TestLexErrors(t *testing.T) {
	for _, input := range []string{"a ! b", "'unterminated", "a # b"} {
		if _, err := lex(input); err == nil {
			t.Errorf("%q: expected lex error", input)
		}
	}
}

func TestParseThresholdJoin(t *testing.T) {
	stmt, err := Parse("SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.6 WHERE feed.score > 10 AND catalog.kind = 'tool'")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.LeftTable != "catalog" || stmt.RightTable != "feed" {
		t.Errorf("tables: %+v", stmt)
	}
	if stmt.Join.TopK != 0 || !stmt.Join.HasThreshold || stmt.Join.Threshold != 0.6 {
		t.Errorf("join: %+v", stmt.Join)
	}
	if len(stmt.Where) != 2 {
		t.Fatalf("where: %+v", stmt.Where)
	}
	if stmt.Where[0].Col.String() != "feed.score" || stmt.Where[0].Op != ">" {
		t.Errorf("pred 0: %+v", stmt.Where[0])
	}
	if stmt.Where[1].Str != "tool" {
		t.Errorf("pred 1: %+v", stmt.Where[1])
	}
}

func TestParseTopKJoin(t *testing.T) {
	stmt, err := Parse("select * from q join corpus on topk(q.text, corpus.doc, 5)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join.TopK != 5 || stmt.Join.HasThreshold {
		t.Errorf("join: %+v", stmt.Join)
	}
	// With residual range condition.
	stmt, err = Parse("SELECT * FROM q JOIN corpus ON TOPK(q.text, corpus.doc, 3) >= 0.8")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Join.TopK != 3 || !stmt.Join.HasThreshold || stmt.Join.Threshold != 0.8 {
		t.Errorf("join: %+v", stmt.Join)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT name FROM a JOIN b ON SIM(a.x, b.y) >= 0.5", // projection unsupported
		"SELECT * FROM a b",                                          // missing JOIN
		"SELECT * FROM a JOIN b",                                     // missing ON
		"SELECT * FROM a JOIN b ON EQ(a.x, b.y)",                     // unknown condition
		"SELECT * FROM a JOIN b ON SIM(a.x, b.y) = 0.5",              // SIM needs >= or >
		"SELECT * FROM a JOIN b ON SIM(a.x, b.y) >= 1.5",             // out of range
		"SELECT * FROM a JOIN b ON SIM(a.x b.y) >= 0.5",              // missing comma
		"SELECT * FROM a JOIN b ON TOPK(a.x, b.y, 0)",                // k must be >= 1
		"SELECT * FROM a JOIN b ON TOPK(a.x, b.y, 2.5)",              // k must be integral
		"SELECT * FROM a JOIN b ON SIM(a.x, b.y) >= 0.5 x",           // trailing
		"SELECT * FROM a JOIN b ON SIM(a.x, b.y) >= 0.5 WHERE a.k >", // missing literal
		"SELECT * FROM a JOIN b ON SIM(a.x, b.y) >= 0.5 WHERE a.k 3", // missing op
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("%q: expected parse error", input)
		}
	}
}

func testCatalog(t *testing.T) (*Catalog, model.Model) {
	t.Helper()
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	catalog, err := relational.NewTable(
		relational.Schema{
			{Name: "sku", Type: relational.Int64},
			{Name: "name", Type: relational.String},
		},
		[]relational.Column{
			relational.Int64Column{1, 2, 3},
			relational.StringColumn{"barbecue", "database", "clothes"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := relational.NewTable(
		relational.Schema{
			{Name: "title", Type: relational.String},
			{Name: "score", Type: relational.Float64},
			{Name: "ingested", Type: relational.Time},
			{Name: "fresh", Type: relational.Bool},
		},
		[]relational.Column{
			relational.StringColumn{"barbecues", "databases", "clothing", "giraffe"},
			relational.Float64Column{1.5, 2.5, 3.5, 4.5},
			relational.TimeColumn{base, base.AddDate(0, 1, 0), base.AddDate(0, 2, 0), base.AddDate(0, 3, 0)},
			relational.BoolColumn{true, true, false, true},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Text columns are embedded into column chunks keyed by each table's
	// row lineage.
	c := NewCatalog()
	c.Register("catalog", catalog.WithIncarnation(1))
	c.Register("feed", feed.WithIncarnation(2))
	m, err := model.NewHashEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestBindAndRun(t *testing.T) {
	c, m := testCatalog(t)
	res, q, err := run(context.Background(),
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Errorf("matches = %v", res.Matches)
	}
	if q.Join.Kind != plan.ThresholdJoin {
		t.Errorf("kind = %v", q.Join.Kind)
	}
}

func TestBindPredicateRouting(t *testing.T) {
	c, m := testCatalog(t)
	stmt, err := Parse("SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.35 " +
		"WHERE feed.score >= 2.0 AND catalog.sku <= 2 AND feed.fresh = 'true' AND feed.ingested > '2023-01-15'")
	if err != nil {
		t.Fatal(err)
	}
	q, err := Bind(stmt, c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Left.Predicates) != 1 || len(q.Right.Predicates) != 3 {
		t.Fatalf("routing: left %v right %v", q.Left.Predicates, q.Right.Predicates)
	}
	res, _, err := plan.Run(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// feed rows surviving: score>=2, fresh, ingested>Jan15 -> only
	// "databases" (row 1). catalog rows: sku<=2 -> barbecue, database.
	if len(res.Matches) != 1 || res.Matches[0].Left != 1 || res.Matches[0].Right != 1 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestBindJoinColumnOrderInsensitive(t *testing.T) {
	c, m := testCatalog(t)
	stmt, _ := Parse("SELECT * FROM catalog JOIN feed ON SIM(feed.title, catalog.name) >= 0.35")
	q, err := Bind(stmt, c, m)
	if err != nil {
		t.Fatal(err)
	}
	if q.Left.TextColumn != "name" || q.Right.TextColumn != "title" {
		t.Errorf("columns: %+v / %+v", q.Left, q.Right)
	}
}

func TestBindErrors(t *testing.T) {
	c, m := testCatalog(t)
	cases := []string{
		"SELECT * FROM nope JOIN feed ON SIM(nope.name, feed.title) >= 0.5",
		"SELECT * FROM catalog JOIN nope ON SIM(catalog.name, nope.title) >= 0.5",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, other.title) >= 0.5",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.missing, feed.title) >= 0.5",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.sku, feed.title) >= 0.5",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE other.x = 1",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE catalog.missing = 1",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE catalog.sku = 'x'",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE catalog.sku = 1.5",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE feed.score = 'x'",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE catalog.name = 3",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE feed.fresh = 'maybe'",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE feed.ingested > 'not-a-date'",
		"SELECT * FROM catalog JOIN feed ON SIM(catalog.name, feed.title) >= 0.5 WHERE feed.ingested > 3",
	}
	for _, input := range cases {
		stmt, err := Parse(input)
		if err != nil {
			continue // parse errors also count as rejection
		}
		if _, err := Bind(stmt, c, m); err == nil {
			t.Errorf("%q: expected bind error", input)
		}
	}
}

func TestRunTopK(t *testing.T) {
	c, m := testCatalog(t)
	res, _, err := run(context.Background(),
		"SELECT * FROM catalog JOIN feed ON TOPK(catalog.name, feed.title, 1)", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Errorf("top-1 per catalog row: %v", res.Matches)
	}
	// Residual range prunes weak best-matches.
	res2, _, err := run(context.Background(),
		"SELECT * FROM catalog JOIN feed ON TOPK(catalog.name, feed.title, 1) >= 0.9", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Matches) >= len(res.Matches) {
		t.Errorf("range did not prune: %d vs %d", len(res2.Matches), len(res.Matches))
	}
}

func TestRunParseError(t *testing.T) {
	c, m := testCatalog(t)
	if _, _, err := run(context.Background(), "not sql", c, m); err == nil {
		t.Error("expected error")
	}
	if _, _, err := run(context.Background(),
		"SELECT * FROM nope JOIN feed ON SIM(nope.name, feed.title) >= 0.5", c, m); err == nil {
		t.Error("expected bind error")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	c, m := testCatalog(t)
	res, _, err := run(context.Background(),
		"select * from CATALOG join FEED on sim(CATALOG.name, FEED.title) >= 0.35", c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Errorf("matches = %v", res.Matches)
	}
}

func TestColRefString(t *testing.T) {
	if got := (ColRef{Table: "a", Column: "b"}).String(); got != "a.b" {
		t.Errorf("String = %q", got)
	}
}

func TestParseKeywordHelper(t *testing.T) {
	toks, _ := lex("select")
	if !toks[0].isKeyword("SELECT") || toks[0].isKeyword("FROM") {
		t.Error("keyword matching broken")
	}
	if !strings.EqualFold("TOPK", "topk") {
		t.Error("sanity")
	}
}
