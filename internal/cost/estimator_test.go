package cost

import (
	"testing"
	"testing/quick"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// heap is the allocator the tests build plans with.
var heap plan.Heap

func estCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 1000, TrueDistinct: 900, Min: 0, Max: 1000, Skew: 1.2},
			{Name: "v", Distinct: 500, TrueDistinct: 500, Min: 0, Max: 100},
			{Name: "f1", Distinct: 10, TrueDistinct: 10, Min: 0, Max: 10},
			{Name: "f2", Distinct: 8, TrueDistinct: 8, Min: 0, Max: 8},
		},
		BaseRows:     1e6,
		BytesPerRow:  64,
		DailySigma:   0.2,
		GrowthPerDay: 1,
		Correlations: []catalog.Correlation{{A: "f1", B: "f2", Factor: 6}},
	})
	cat.AddStream(&catalog.Stream{
		Name: "d",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 1000, TrueDistinct: 900, Min: 0, Max: 1000},
			{Name: "attr", Distinct: 20, TrueDistinct: 20, Min: 0, Max: 20},
		},
		BaseRows:     1000,
		BytesPerRow:  32,
		GrowthPerDay: 1,
	})
	cat.AddUDO(&catalog.UDO{Name: "u", EstFactor: 1, TrueFactor: 3, CPUPerRow: 2})
	return cat
}

func scol(id int, name string) plan.Column {
	return plan.Column{ID: plan.ColumnID(id), Name: name, Source: "s." + name}
}

func dcol(id int, name string) plan.Column {
	return plan.Column{ID: plan.ColumnID(id), Name: name, Source: "d." + name}
}

func sSchema() []plan.Column {
	return []plan.Column{scol(1, "k"), scol(2, "v"), scol(3, "f1"), scol(4, "f2")}
}

func TestScanProps(t *testing.T) {
	cat := estCatalog()
	est := NewEstimated(cat)
	p := est.Scan(&Arena{}, "s", sSchema(), nil)
	if p.Rows != 1e6 {
		t.Fatalf("estimated scan rows %v", p.Rows)
	}
	if got := p.ColNDV(1); got != 1000 {
		t.Fatalf("k NDV %v", got)
	}
	oracle := NewTrue(cat, 0)
	tp := oracle.Scan(&Arena{}, "s", sSchema(), nil)
	if tp.Rows == p.Rows {
		t.Fatal("true scan rows identical to stale estimate (no daily drift)")
	}
	if got := tp.ColNDV(1); got != 900 {
		t.Fatalf("true k NDV %v", got)
	}
}

func TestSelectivityClamped(t *testing.T) {
	est := NewEstimated(estCatalog())
	p := est.Scan(&Arena{}, "s", sSchema(), nil)
	f := func(op uint8, v float64) bool {
		pred := plan.Cmp(heap, plan.CmpOp(op%6), plan.ColExpr(heap, scol(2, "v")), plan.NumExpr(heap, v))
		s := est.Selectivity(pred, p)
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffOrderMatters(t *testing.T) {
	// Estimated conjunction selectivity depends on conjunct order; the true
	// oracle's does not. This asymmetry powers SelectPredNormalized.
	cat := estCatalog()
	est := NewEstimated(cat)
	p := est.Scan(&Arena{}, "s", sSchema(), nil)
	selective := plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(3, "f1")), plan.NumExpr(heap, 3))
	loose := plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, scol(2, "v")), plan.NumExpr(heap, 10))
	s1 := est.Selectivity(plan.And(heap, selective, loose), p)
	s2 := est.Selectivity(plan.And(heap, loose, selective), p)
	if s1 == s2 {
		t.Fatal("estimated backoff ignores conjunct order")
	}
	if s1 >= s2 {
		t.Fatalf("most-selective-first should give the lower estimate: %v vs %v", s1, s2)
	}
	oracle := NewTrue(cat, 0)
	t1 := oracle.Selectivity(plan.And(heap, selective, loose), p)
	t2 := oracle.Selectivity(plan.And(heap, loose, selective), p)
	if t1 != t2 {
		t.Fatal("true selectivity depends on conjunct order")
	}
}

func TestCorrelationBoost(t *testing.T) {
	cat := estCatalog()
	est := NewEstimated(cat)
	oracle := NewTrue(cat, 0)
	p := est.Scan(&Arena{}, "s", sSchema(), nil)
	pred := plan.And(heap,
		plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(3, "f1")), plan.NumExpr(heap, 3)),
		plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(4, "f2")), plan.NumExpr(heap, 2)),
	)
	se := est.Selectivity(pred, p)
	st := oracle.Selectivity(pred, p)
	if st <= se {
		t.Fatalf("correlated conjunction should be underestimated: est %v true %v", se, st)
	}
}

func TestDisjunctionSelectivity(t *testing.T) {
	est := NewEstimated(estCatalog())
	p := est.Scan(&Arena{}, "s", sSchema(), nil)
	a := plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(3, "f1")), plan.NumExpr(heap, 3))
	or := plan.Or(heap, a, plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(3, "f1")), plan.NumExpr(heap, 4)))
	sa := est.Selectivity(a, p)
	so := est.Selectivity(or, p)
	if so <= sa {
		t.Fatalf("disjunction not wider than one disjunct: %v vs %v", so, sa)
	}
	if so > 1 {
		t.Fatalf("disjunction selectivity %v > 1", so)
	}
}

func TestJoinCardinality(t *testing.T) {
	cat := estCatalog()
	est := NewEstimated(cat)
	l := est.Scan(&Arena{}, "s", sSchema(), nil)
	r := est.Scan(&Arena{}, "d", []plan.Column{dcol(10, "k"), dcol(11, "attr")}, nil)
	pred := plan.Cmp(heap, plan.OpEQ, plan.ColExpr(heap, scol(1, "k")), plan.ColExpr(heap, dcol(10, "k")))
	j := est.Join(&Arena{}, l, r, pred)
	// Containment: |L||R|/max(ndv) = 1e6*1000/1000 = 1e6.
	if j.Rows < 0.5e6 || j.Rows > 2e6 {
		t.Fatalf("estimated join rows %v, want ~1e6", j.Rows)
	}
	oracle := NewTrue(cat, 0)
	lt := oracle.Scan(&Arena{}, "s", sSchema(), nil)
	rt := oracle.Scan(&Arena{}, "d", []plan.Column{dcol(10, "k"), dcol(11, "attr")}, nil)
	jt := oracle.Join(&Arena{}, lt, rt, pred)
	// k is skewed: true join output exceeds the uniform prediction scaled
	// by input drift.
	if jt.Rows/lt.Rows <= 1.01*(j.Rows/l.Rows) {
		t.Fatalf("skewed join fan-out missing: est fanout %v true fanout %v", j.Rows/l.Rows, jt.Rows/lt.Rows)
	}
}

func TestCrossJoinWithoutPred(t *testing.T) {
	est := NewEstimated(estCatalog())
	l := est.Scan(&Arena{}, "s", sSchema(), nil)
	r := est.Scan(&Arena{}, "d", []plan.Column{dcol(10, "k")}, nil)
	j := est.Join(&Arena{}, l, r, nil)
	if j.Rows != l.Rows*r.Rows {
		t.Fatalf("cross join rows %v, want %v", j.Rows, l.Rows*r.Rows)
	}
}

func TestGroupByCaps(t *testing.T) {
	est := NewEstimated(estCatalog())
	in := est.Scan(&Arena{}, "s", sSchema(), nil)
	g := est.GroupBy(&Arena{}, in, []plan.Column{scol(1, "k")}, []plan.Agg{{Fn: "COUNT", Out: plan.Column{ID: 99, Name: "c"}}})
	if g.Rows > in.Rows {
		t.Fatal("groupby output exceeds input")
	}
	if g.Rows != 1000 {
		t.Fatalf("groupby rows %v, want key NDV 1000", g.Rows)
	}
	// Keyless aggregation: one row.
	g0 := est.GroupBy(&Arena{}, in, nil, []plan.Agg{{Fn: "COUNT", Out: plan.Column{ID: 99, Name: "c"}}})
	if g0.Rows != 1 {
		t.Fatalf("global agg rows %v", g0.Rows)
	}
}

func TestUnionAllSums(t *testing.T) {
	est := NewEstimated(estCatalog())
	a := est.Scan(&Arena{}, "s", sSchema(), nil)
	b := est.Scan(&Arena{}, "s", sSchema(), nil)
	out := est.UnionAll(&Arena{},
		[]Props{a, b},
		[][]plan.Column{sSchema(), sSchema()},
		sSchema(),
	)
	if out.Rows != a.Rows+b.Rows {
		t.Fatalf("union rows %v", out.Rows)
	}
}

func TestProcessFactors(t *testing.T) {
	cat := estCatalog()
	est := NewEstimated(cat)
	oracle := NewTrue(cat, 0)
	in := est.Scan(&Arena{}, "s", sSchema(), nil)
	pe := est.Process(&Arena{}, in, "u")
	pt := oracle.Process(&Arena{}, in, "u")
	if pe.Rows != in.Rows {
		t.Fatalf("estimated UDO factor should be 1: %v", pe.Rows)
	}
	if pt.Rows != 3*in.Rows {
		t.Fatalf("true UDO factor should be 3: %v", pt.Rows)
	}
}

func TestTopCaps(t *testing.T) {
	est := NewEstimated(estCatalog())
	in := est.Scan(&Arena{}, "s", sSchema(), nil)
	if got := est.Top(&Arena{}, in, 100).Rows; got != 100 {
		t.Fatalf("top rows %v", got)
	}
	small := Props{Rows: 5}
	if got := est.Top(&Arena{}, small, 100).Rows; got != 5 {
		t.Fatalf("top of small input %v", got)
	}
}

func TestProjectNDVPropagation(t *testing.T) {
	est := NewEstimated(estCatalog())
	in := est.Scan(&Arena{}, "s", sSchema(), nil)
	out := est.Project(&Arena{}, in, []plan.Projection{
		{Expr: plan.ColExpr(heap, scol(1, "k")), Out: scol(1, "k")},
		{Expr: plan.Cmp(heap, plan.OpAdd, plan.ColExpr(heap, scol(2, "v")), plan.NumExpr(heap, 1)), Out: plan.Column{ID: 50, Name: "vx"}},
	})
	if out.ColNDV(1) != in.ColNDV(1) {
		t.Fatal("pass-through NDV lost")
	}
	if out.ColNDV(50) != in.Rows {
		t.Fatalf("computed column NDV %v, want rows", out.ColNDV(50))
	}
}

func TestFilterReducesRowsMonotonically(t *testing.T) {
	est := NewEstimated(estCatalog())
	in := est.Scan(&Arena{}, "s", sSchema(), nil)
	f := func(v float64) bool {
		pred := plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, scol(2, "v")), plan.NumExpr(heap, v))
		out := est.Filter(&Arena{}, in, pred)
		return out.Rows >= 1 && out.Rows <= in.Rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
