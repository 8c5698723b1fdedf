package scopeql_test

import (
	"fmt"
	"testing"

	"steerq/internal/scopeql"
	"steerq/internal/workload"
)

// equalScript compares two scripts structurally, ignoring source positions —
// the property a printer must preserve. It reports the first difference as a
// human-readable path.
func equalScript(a, b *scopeql.Script) error {
	if len(a.Stmts) != len(b.Stmts) {
		return fmt.Errorf("%d vs %d statements", len(a.Stmts), len(b.Stmts))
	}
	for i := range a.Stmts {
		if err := equalStmt(a.Stmts[i], b.Stmts[i]); err != nil {
			return fmt.Errorf("stmt %d: %w", i, err)
		}
	}
	return nil
}

func equalStmt(a, b scopeql.Stmt) error {
	switch a := a.(type) {
	case *scopeql.AssignStmt:
		bb, ok := b.(*scopeql.AssignStmt)
		if !ok {
			return fmt.Errorf("assign vs %T", b)
		}
		if a.Name != bb.Name {
			return fmt.Errorf("assign name %q vs %q", a.Name, bb.Name)
		}
		return equalRel(a.Rel, bb.Rel)
	case *scopeql.OutputStmt:
		bb, ok := b.(*scopeql.OutputStmt)
		if !ok {
			return fmt.Errorf("output vs %T", b)
		}
		if a.Name != bb.Name || a.Path != bb.Path {
			return fmt.Errorf("output %q->%q vs %q->%q", a.Name, a.Path, bb.Name, bb.Path)
		}
		return nil
	}
	return fmt.Errorf("unknown statement %T", a)
}

func equalRel(a, b scopeql.RelExpr) error {
	switch a := a.(type) {
	case *scopeql.VarRef:
		bb, ok := b.(*scopeql.VarRef)
		if !ok || a.Name != bb.Name {
			return fmt.Errorf("varref %q vs %#v", a.Name, b)
		}
	case *scopeql.ExtractExpr:
		bb, ok := b.(*scopeql.ExtractExpr)
		if !ok || a.Stream != bb.Stream || fmt.Sprint(a.Columns) != fmt.Sprint(bb.Columns) {
			return fmt.Errorf("extract %v vs %#v", a, b)
		}
	case *scopeql.SelectExpr:
		bb, ok := b.(*scopeql.SelectExpr)
		if !ok {
			return fmt.Errorf("select vs %T", b)
		}
		return equalSelect(a, bb)
	case *scopeql.UnionExpr:
		bb, ok := b.(*scopeql.UnionExpr)
		if !ok {
			return fmt.Errorf("union vs %T", b)
		}
		if len(a.Terms) != len(bb.Terms) {
			return fmt.Errorf("union arity %d vs %d", len(a.Terms), len(bb.Terms))
		}
		for i := range a.Terms {
			if err := equalRel(a.Terms[i], bb.Terms[i]); err != nil {
				return fmt.Errorf("union term %d: %w", i, err)
			}
		}
	case *scopeql.ProcessExpr:
		bb, ok := b.(*scopeql.ProcessExpr)
		if !ok || a.UDO != bb.UDO {
			return fmt.Errorf("process vs %#v", b)
		}
		return equalRel(a.Source, bb.Source)
	case *scopeql.ReduceExpr:
		bb, ok := b.(*scopeql.ReduceExpr)
		if !ok || a.UDO != bb.UDO {
			return fmt.Errorf("reduce vs %#v", b)
		}
		if err := equalCols(a.Keys, bb.Keys); err != nil {
			return fmt.Errorf("reduce keys: %w", err)
		}
		return equalRel(a.Source, bb.Source)
	default:
		return fmt.Errorf("unknown relational expr %T", a)
	}
	return nil
}

func equalSelect(a, b *scopeql.SelectExpr) error {
	if a.Top != b.Top || a.Star != b.Star {
		return fmt.Errorf("top/star %d/%v vs %d/%v", a.Top, a.Star, b.Top, b.Star)
	}
	if len(a.Items) != len(b.Items) {
		return fmt.Errorf("%d vs %d items", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i].Alias != b.Items[i].Alias {
			return fmt.Errorf("item %d alias %q vs %q", i, a.Items[i].Alias, b.Items[i].Alias)
		}
		if err := equalScalar(a.Items[i].Expr, b.Items[i].Expr); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	if err := equalTableRef(a.From, b.From); err != nil {
		return fmt.Errorf("from: %w", err)
	}
	if len(a.Joins) != len(b.Joins) {
		return fmt.Errorf("%d vs %d joins", len(a.Joins), len(b.Joins))
	}
	for i := range a.Joins {
		if err := equalTableRef(a.Joins[i].Right, b.Joins[i].Right); err != nil {
			return fmt.Errorf("join %d: %w", i, err)
		}
		if err := equalScalar(a.Joins[i].On, b.Joins[i].On); err != nil {
			return fmt.Errorf("join %d on: %w", i, err)
		}
	}
	if err := equalOptScalar(a.Where, b.Where); err != nil {
		return fmt.Errorf("where: %w", err)
	}
	if err := equalCols(a.GroupBy, b.GroupBy); err != nil {
		return fmt.Errorf("group by: %w", err)
	}
	if err := equalOptScalar(a.Having, b.Having); err != nil {
		return fmt.Errorf("having: %w", err)
	}
	if len(a.OrderBy) != len(b.OrderBy) {
		return fmt.Errorf("%d vs %d order keys", len(a.OrderBy), len(b.OrderBy))
	}
	for i := range a.OrderBy {
		ka, kb := a.OrderBy[i], b.OrderBy[i]
		if ka.Desc != kb.Desc || ka.Col.String() != kb.Col.String() {
			return fmt.Errorf("order key %d: %v/%v vs %v/%v", i, ka.Col, ka.Desc, kb.Col, kb.Desc)
		}
	}
	return nil
}

func equalTableRef(a, b scopeql.TableRef) error {
	if a.Var != b.Var || a.Stream != b.Stream || a.Alias != b.Alias {
		return fmt.Errorf("ref %v vs %v", a, b)
	}
	if (a.Sub == nil) != (b.Sub == nil) {
		return fmt.Errorf("one ref has a subquery, the other not")
	}
	if a.Sub != nil {
		return equalRel(a.Sub, b.Sub)
	}
	return nil
}

func equalCols(a, b []scopeql.ColName) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d columns", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("column %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

func equalOptScalar(a, b scopeql.ScalarExpr) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("present vs absent")
	}
	if a == nil {
		return nil
	}
	return equalScalar(a, b)
}

func equalScalar(a, b scopeql.ScalarExpr) error {
	switch a := a.(type) {
	case *scopeql.ColName:
		bb, ok := b.(*scopeql.ColName)
		if !ok || a.String() != bb.String() {
			return fmt.Errorf("col %v vs %#v", a, b)
		}
	case *scopeql.NumLit:
		bb, ok := b.(*scopeql.NumLit)
		if !ok || a.Value != bb.Value {
			return fmt.Errorf("num %v vs %#v", a.Value, b)
		}
	case *scopeql.StrLit:
		bb, ok := b.(*scopeql.StrLit)
		if !ok || a.Value != bb.Value {
			return fmt.Errorf("str %q vs %#v", a.Value, b)
		}
	case *scopeql.BinExpr:
		bb, ok := b.(*scopeql.BinExpr)
		if !ok || a.Op != bb.Op {
			return fmt.Errorf("binop %q vs %#v", a.Op, b)
		}
		if err := equalScalar(a.L, bb.L); err != nil {
			return fmt.Errorf("%s left: %w", a.Op, err)
		}
		if err := equalScalar(a.R, bb.R); err != nil {
			return fmt.Errorf("%s right: %w", a.Op, err)
		}
	case *scopeql.CallExpr:
		bb, ok := b.(*scopeql.CallExpr)
		if !ok || a.Fn != bb.Fn || a.Star != bb.Star || len(a.Args) != len(bb.Args) {
			return fmt.Errorf("call %s vs %#v", a.Fn, b)
		}
		for i := range a.Args {
			if err := equalScalar(a.Args[i], bb.Args[i]); err != nil {
				return fmt.Errorf("%s arg %d: %w", a.Fn, i, err)
			}
		}
	default:
		return fmt.Errorf("unknown scalar %T", a)
	}
	return nil
}

// roundTrip asserts the printer's two contracts on one source text:
// Parse∘Print is the identity on ASTs (no information lost, positions
// aside), and Print∘Parse is a fixed point on source (printing is canonical
// after one pass).
func roundTrip(t *testing.T, src string) {
	t.Helper()
	s1, err := scopeql.Parse(src)
	if err != nil {
		t.Fatalf("corpus script does not parse: %v\n%s", err, src)
	}
	p1 := scopeql.Print(s1)
	s2, err := scopeql.Parse(p1)
	if err != nil {
		t.Fatalf("printed script does not reparse: %v\noriginal:\n%s\nprinted:\n%s", err, src, p1)
	}
	if err := equalScript(s1, s2); err != nil {
		t.Fatalf("print lost information: %v\noriginal:\n%s\nprinted:\n%s", err, src, p1)
	}
	if p2 := scopeql.Print(s2); p2 != p1 {
		t.Fatalf("print is not a fixed point:\nfirst:\n%s\nsecond:\n%s", p1, p2)
	}
}

// TestPrintRoundTripCorpus covers every statement form and the precedence
// and associativity corners where minimal parenthesization could go wrong.
func TestPrintRoundTripCorpus(t *testing.T) {
	corpus := []string{
		// The package documentation's example job.
		`filtered = SELECT user_id, region, amount
		            FROM "shop/orders"
		            WHERE amount > 100 AND region == "EU";
		 joined   = SELECT f.user_id, u.segment, f.amount
		            FROM filtered AS f
		            INNER JOIN "shop/users" AS u ON f.user_id == u.user_id;
		 agg      = SELECT segment, SUM(amount) AS total
		            FROM joined GROUP BY segment;
		 cooked   = PROCESS agg USING SegmentScorer;
		 OUTPUT cooked TO "out/segment_totals";`,
		// Every statement/clause form.
		`e = EXTRACT a, b, c FROM "lake/raw"; OUTPUT e TO "o";`,
		`x = SELECT * FROM "lake/t"; OUTPUT x TO "o";`,
		`tp = SELECT TOP 10 a, cnt FROM g ORDER BY cnt DESC, a, b ASC; OUTPUT tp TO "o";`,
		`g = SELECT a, COUNT(*) AS cnt, SUM(c) AS total, AVG(c) AS m FROM j GROUP BY a, b HAVING cnt > 3 AND total < 100; OUTPUT g TO "o";`,
		`x = SELECT a FROM (SELECT a FROM "lake/t" WHERE a > 1) AS s; OUTPUT x TO "o";`,
		`r = REDUCE y ON k, u.v USING Cook; OUTPUT r TO "o";`,
		`r = REDUCE (SELECT a FROM "t") ON a USING Cook; OUTPUT r TO "o";`,
		`p = PROCESS y USING Cook; OUTPUT p TO "o";`,
		`p = PROCESS (a UNION ALL b) USING Cook; OUTPUT p TO "o";`,
		`u = a UNION ALL SELECT x FROM "t" UNION ALL b; OUTPUT u TO "o";`,
		`u = (a UNION ALL b) UNION ALL c; OUTPUT u TO "o";`,
		// Precedence and associativity corners.
		`x = SELECT a + b * 2 AS v, (a + b) * 2 AS w FROM "t"; OUTPUT x TO "o";`,
		`x = SELECT a - (b - c) AS d, a / (b * c) AS e, a - b - c AS f FROM "t"; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE (a + 1) * 2 > 3 AND (b == 1 OR c == 2); OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE a OR b AND c OR d; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE (a OR b) AND c; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE (a AND b) == c; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE (a == b) == (c != d); OUTPUT x TO "o";`,
		`x = SELECT SUM(a + b * c) AS s FROM "t" GROUP BY k; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE region == "EU" AND x != "a b c"; OUTPUT x TO "o";`,
		`x = SELECT a FROM "t" WHERE a > 0.5 AND b < 1000000000000 AND c >= 0.0625; OUTPUT x TO "o";`,
		`j = SELECT f.a FROM f INNER JOIN e AS u ON f.a == u.a AND f.b < u.b INNER JOIN (SELECT z FROM "t") AS w ON w.z == f.a; OUTPUT j TO "o";`,
	}
	for i, src := range corpus {
		t.Run(fmt.Sprintf("corpus%02d", i), func(t *testing.T) { roundTrip(t, src) })
	}
}

// TestPrintRoundTripWorkloads round-trips every generated job script of all
// three workload profiles — the scripts the rest of the system actually
// compiles.
func TestPrintRoundTripWorkloads(t *testing.T) {
	profiles := map[string]workload.Profile{
		"A": workload.ProfileA(0.002, 7),
		"B": workload.ProfileB(0.002, 7),
		"C": workload.ProfileC(0.002, 7),
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			w := workload.Generate(p)
			n := 0
			for day := 0; day < 2; day++ {
				for _, j := range w.Day(day) {
					roundTrip(t, j.Script)
					n++
				}
			}
			if n == 0 {
				t.Fatal("profile generated no jobs; round-trip is vacuous")
			}
		})
	}
}
