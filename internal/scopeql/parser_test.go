package scopeql

import (
	"strings"
	"testing"
)

func TestParseFullScript(t *testing.T) {
	src := `
f = SELECT a, b FROM "lake/t" WHERE a > 5 AND b == 2 OR a < 1;
e = EXTRACT a, c FROM "lake/u";
j = SELECT f.a AS a, u.c AS c FROM f INNER JOIN e AS u ON f.a == u.a;
g = SELECT a, COUNT(*) AS cnt, SUM(c) AS total FROM j GROUP BY a HAVING cnt > 3;
un = f UNION ALL f UNION ALL f;
p = PROCESS un USING MyUdo;
rj = REDUCE p ON a USING MyReducer;
tp = SELECT TOP 10 a, cnt FROM g ORDER BY cnt DESC, a;
OUTPUT tp TO "out/x";
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Stmts) != 9 {
		t.Fatalf("got %d statements, want 9", len(s.Stmts))
	}
	sel := s.Stmts[0].(*AssignStmt).Rel.(*SelectExpr)
	if sel.Where == nil {
		t.Fatal("WHERE not parsed")
	}
	// a > 5 AND b == 2 OR a < 1 must parse as (a>5 AND b==2) OR (a<1).
	or, ok := sel.Where.(*BinExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top-level operator is %v, want OR", sel.Where)
	}
	and, ok := or.L.(*BinExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left of OR is %v, want AND", or.L)
	}

	union := s.Stmts[4].(*AssignStmt).Rel.(*UnionExpr)
	if len(union.Terms) != 3 {
		t.Fatalf("union has %d terms, want 3", len(union.Terms))
	}

	top := s.Stmts[7].(*AssignStmt).Rel.(*SelectExpr)
	if top.Top != 10 || len(top.OrderBy) != 2 || !top.OrderBy[0].Desc || top.OrderBy[1].Desc {
		t.Fatalf("TOP/ORDER BY parsed wrong: %+v", top)
	}

	out := s.Stmts[8].(*OutputStmt)
	if out.Name != "tp" || out.Path != "out/x" {
		t.Fatalf("OUTPUT parsed wrong: %+v", out)
	}
}

func TestParseArithPrecedence(t *testing.T) {
	s, err := Parse(`x = SELECT a + b * 2 AS v FROM "lake/t"; OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	item := s.Stmts[0].(*AssignStmt).Rel.(*SelectExpr).Items[0]
	add := item.Expr.(*BinExpr)
	if add.Op != "+" {
		t.Fatalf("top op %q, want +", add.Op)
	}
	mul := add.R.(*BinExpr)
	if mul.Op != "*" {
		t.Fatalf("right op %q, want *", mul.Op)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	s, err := Parse(`x = SELECT t.a FROM "lake/t" AS t; OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	col := s.Stmts[0].(*AssignStmt).Rel.(*SelectExpr).Items[0].Expr.(*ColName)
	if col.Qualifier != "t" || col.Name != "a" {
		t.Fatalf("qualified column parsed as %+v", col)
	}
}

func TestParseStar(t *testing.T) {
	s, err := Parse(`x = SELECT * FROM "lake/t"; OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stmts[0].(*AssignStmt).Rel.(*SelectExpr).Star {
		t.Fatal("star not recognized")
	}
}

func TestParseParenthesizedSource(t *testing.T) {
	_, err := Parse(`x = SELECT a FROM (SELECT a FROM "lake/t") AS s; OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                 ``,
		"missing semicolon":     `x = SELECT a FROM "t"`,
		"missing FROM":          `x = SELECT a;`,
		"bad TOP":               `x = SELECT TOP 0 a FROM "t"; OUTPUT x TO "o";`,
		"bad TOP word":          `x = SELECT TOP abc a FROM "t"; OUTPUT x TO "o";`,
		"union missing ALL":     `x = a UNION b; OUTPUT x TO "o";`,
		"output missing TO":     `OUTPUT x "o";`,
		"output non-string":     `OUTPUT x TO path;`,
		"reduce missing USING":  `x = REDUCE y ON k; OUTPUT x TO "o";`,
		"process missing USING": `x = PROCESS y; OUTPUT x TO "o";`,
		"dangling expr":         `x = SELECT a + FROM "t"; OUTPUT x TO "o";`,
		"unclosed paren":        `x = SELECT (a FROM "t"; OUTPUT x TO "o";`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("x = SELECT a\nFROM;")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error %q lacks line position", err)
	}
}

func TestParseAggregates(t *testing.T) {
	s, err := Parse(`x = SELECT k, COUNT(*) AS c, AVG(v) AS a FROM "t" GROUP BY k; OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	items := s.Stmts[0].(*AssignStmt).Rel.(*SelectExpr).Items
	cnt := items[1].Expr.(*CallExpr)
	if cnt.Fn != "COUNT" || !cnt.Star {
		t.Fatalf("COUNT(*) parsed as %+v", cnt)
	}
	avg := items[2].Expr.(*CallExpr)
	if avg.Fn != "AVG" || avg.Star || len(avg.Args) != 1 {
		t.Fatalf("AVG(v) parsed as %+v", avg)
	}
}
