package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func col(id int, name, source string) Column {
	return Column{ID: ColumnID(id), Name: name, Source: source}
}

func TestAndFlattening(t *testing.T) {
	a := Cmp(OpGT, ColExpr(col(1, "a", "")), NumExpr(1))
	b := Cmp(OpLT, ColExpr(col(2, "b", "")), NumExpr(2))
	c := Cmp(OpEQ, ColExpr(col(3, "c", "")), NumExpr(3))
	got := And(And(a, b), c)
	if got.Kind != ExprAnd || len(got.Args) != 3 {
		t.Fatalf("And did not flatten: %v", got)
	}
	if And() != nil {
		t.Fatal("And() should be nil")
	}
	if And(a) != a {
		t.Fatal("And(a) should be a")
	}
	if And(nil, a, nil) != a {
		t.Fatal("And should skip nils")
	}
}

func TestConjuncts(t *testing.T) {
	a := Cmp(OpGT, ColExpr(col(1, "a", "")), NumExpr(1))
	b := Cmp(OpLT, ColExpr(col(2, "b", "")), NumExpr(2))
	if got := Conjuncts(And(a, b)); len(got) != 2 {
		t.Fatalf("Conjuncts = %v", got)
	}
	if got := Conjuncts(a); len(got) != 1 || got[0] != a {
		t.Fatalf("Conjuncts of simple expr = %v", got)
	}
	if Conjuncts(nil) != nil {
		t.Fatal("Conjuncts(nil) should be nil")
	}
}

func TestRefersOnly(t *testing.T) {
	e := And(
		Cmp(OpGT, ColExpr(col(1, "a", "")), NumExpr(1)),
		Cmp(OpEQ, ColExpr(col(2, "b", "")), ColExpr(col(3, "c", ""))),
	)
	if !e.RefersOnly(map[ColumnID]bool{1: true, 2: true, 3: true}) {
		t.Fatal("RefersOnly false with full set")
	}
	if e.RefersOnly(map[ColumnID]bool{1: true, 2: true}) {
		t.Fatal("RefersOnly true with missing column")
	}
}

func TestEquiJoinSides(t *testing.T) {
	a, b := col(1, "a", ""), col(2, "b", "")
	e := Cmp(OpEQ, ColExpr(a), ColExpr(b))
	l, r, ok := e.EquiJoinSides()
	if !ok || l.ID != 1 || r.ID != 2 {
		t.Fatalf("EquiJoinSides = %v %v %v", l, r, ok)
	}
	if _, _, ok := Cmp(OpLT, ColExpr(a), ColExpr(b)).EquiJoinSides(); ok {
		t.Fatal("non-equality accepted")
	}
	if _, _, ok := Cmp(OpEQ, ColExpr(a), NumExpr(5)).EquiJoinSides(); ok {
		t.Fatal("column-constant accepted")
	}
}

// buildJob constructs Select(Get) -> Project -> Output with the given
// constant in the predicate.
func buildJob(threshold float64, stream string) *Node {
	c := col(1, "a", stream+".a")
	get := NewGet(stream, []Column{c})
	sel := NewSelect(get, Cmp(OpGT, ColExpr(c), NumExpr(threshold)))
	proj := NewProject(sel, []Projection{{Expr: ColExpr(c), Out: c}})
	return NewOutput(proj, "out/x")
}

func TestTemplateHashIgnoresLiterals(t *testing.T) {
	a := buildJob(10, "s")
	b := buildJob(99, "s")
	if TemplateHash(a) != TemplateHash(b) {
		t.Fatal("template hash depends on literal values")
	}
	if InstanceHash(a) == InstanceHash(b) {
		t.Fatal("instance hash ignores literal values")
	}
}

func TestTemplateHashSensitiveToInputs(t *testing.T) {
	a := buildJob(10, "s1")
	b := buildJob(10, "s2")
	if TemplateHash(a) == TemplateHash(b) {
		t.Fatal("template hash ignores input stream name (§6.4 requires it not to)")
	}
	if InputsHash(a) == InputsHash(b) {
		t.Fatal("inputs hash ignores stream name")
	}
}

func TestWalkVisitsSharedOnce(t *testing.T) {
	c := col(1, "a", "s.a")
	get := NewGet("s", []Column{c})
	o1 := NewOutput(get, "x")
	o2 := NewOutput(get, "y")
	root := NewMulti(o1, o2)
	count := 0
	root.Walk(func(n *Node) {
		if n.Op == OpGet {
			count++
		}
	})
	if count != 1 {
		t.Fatalf("shared Get visited %d times", count)
	}
	if root.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", root.Count())
	}
}

func TestInputs(t *testing.T) {
	g1 := NewGet("s2", []Column{col(1, "a", "s2.a")})
	g2 := NewGet("s1", []Column{col(2, "b", "s1.b")})
	j := NewJoin(g1, g2, Cmp(OpEQ, ColExpr(col(1, "a", "s2.a")), ColExpr(col(2, "b", "s1.b"))))
	got := j.Inputs()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("Inputs = %v", got)
	}
}

func TestCloneWithFreshIDs(t *testing.T) {
	root := buildJob(5, "s")
	next := ColumnID(100)
	clone := CloneWithFreshIDs(root, func() ColumnID { next++; return next })

	// Same structure.
	if TemplateHash(root) != TemplateHash(clone) {
		t.Fatal("clone changed the template")
	}
	// All IDs remapped above 100.
	clone.Walk(func(n *Node) {
		for _, c := range n.Schema {
			if c.ID <= 100 {
				t.Fatalf("clone kept old column ID %d", c.ID)
			}
		}
	})
	// Predicate references remapped consistently with schemas.
	var sel *Node
	clone.Walk(func(n *Node) {
		if n.Op == OpSelect {
			sel = n
		}
	})
	if !sel.Pred.RefersOnly(sel.Children[0].ColumnSet()) {
		t.Fatal("clone predicate references unmapped columns")
	}
}

func TestCloneSharingPreserved(t *testing.T) {
	c := col(1, "a", "s.a")
	get := NewGet("s", []Column{c})
	root := NewMulti(NewOutput(get, "x"), NewOutput(get, "y"))
	next := ColumnID(100)
	clone := CloneWithFreshIDs(root, func() ColumnID { next++; return next })
	if clone.Children[0].Children[0] != clone.Children[1].Children[0] {
		t.Fatal("clone broke internal sharing")
	}
}

func TestDistributionSatisfies(t *testing.T) {
	hash := Distribution{Kind: DistHash, Keys: []ColumnID{1, 2}, DOP: 8}
	cases := []struct {
		d, r Distribution
		want bool
	}{
		{hash, Distribution{Kind: DistAny}, true},
		{hash, Distribution{Kind: DistHash, Keys: []ColumnID{1, 2}}, true},
		{hash, Distribution{Kind: DistHash, Keys: []ColumnID{2, 1}}, false},
		{hash, Distribution{Kind: DistHash, Keys: []ColumnID{1}}, false},
		{hash, Distribution{Kind: DistRandom}, true},
		{hash, Distribution{Kind: DistSingleton}, false},
		{Distribution{Kind: DistSingleton, DOP: 1}, Distribution{Kind: DistHash, Keys: []ColumnID{1}}, true},
		{Distribution{Kind: DistBroadcast}, Distribution{Kind: DistBroadcast}, true},
		{Distribution{Kind: DistRandom}, Distribution{Kind: DistBroadcast}, false},
	}
	for i, c := range cases {
		if got := c.d.Satisfies(c.r); got != c.want {
			t.Errorf("case %d: %v satisfies %v = %v, want %v", i, c.d, c.r, got, c.want)
		}
	}
}

func TestNodeString(t *testing.T) {
	s := buildJob(5, "stream").String()
	for _, want := range []string{"Output", "Project", "Select", "Get(stream)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestExprString(t *testing.T) {
	e := And(
		Cmp(OpGT, ColExpr(col(1, "a", "")), NumExpr(1.5)),
		Or(Cmp(OpEQ, ColExpr(col(2, "b", "")), StrExpr("x")), Cmp(OpNE, ColExpr(col(3, "c", "")), NumExpr(2))),
	)
	s := e.String()
	for _, want := range []string{"a", ">", "1.5", `"x"`, "OR", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("expr string %q missing %q", s, want)
		}
	}
}

// fmtExprString is the fmt-built rendering String had before AppendString,
// kept as the reference the append path must reproduce byte for byte: the
// execution simulator hashes predicate renderings into its noise seeds.
func fmtExprString(e *Expr) string {
	if e == nil {
		return "<nil>"
	}
	join := func(args []*Expr, sep string) string {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = fmtExprString(a)
		}
		return strings.Join(parts, sep)
	}
	switch e.Kind {
	case ExprColumn:
		return e.Col.Name
	case ExprConst:
		return e.Lit.String()
	case ExprCmp, ExprArith:
		return fmt.Sprintf("(%s %s %s)", fmtExprString(e.Args[0]), e.Op, fmtExprString(e.Args[1]))
	case ExprAnd:
		return "(" + join(e.Args, " AND ") + ")"
	case ExprOr:
		return "(" + join(e.Args, " OR ") + ")"
	case ExprFunc:
		return fmt.Sprintf("%s(%s)", e.Fn, join(e.Args, ", "))
	}
	return "<expr?>"
}

func TestExprAppendStringMatchesFmt(t *testing.T) {
	a, b := ColExpr(col(1, "a", "")), ColExpr(col(2, "é", ""))
	exprs := []*Expr{
		nil, a,
		NumExpr(1.5), NumExpr(-0.0), NumExpr(1e21), NumExpr(math.Inf(-1)), NumExpr(math.NaN()),
		StrExpr(""), StrExpr("q\"uo\\te\n"), StrExpr("日本\xff"),
		&Expr{Kind: ExprArith, Op: OpDiv, Args: []*Expr{a, NumExpr(3)}},
		&Expr{Kind: ExprFunc, Fn: "ABS", Args: []*Expr{a, b}},
		&Expr{Kind: ExprFunc, Fn: "NOW"},
		&Expr{Kind: ExprCmp, Op: OpLE, Args: []*Expr{nil, b}},
		&Expr{Kind: ExprKind(99)},
		And(Cmp(OpGT, a, NumExpr(1.5)), Or(Cmp(OpEQ, b, StrExpr("x")), Cmp(OpNE, a, b)), Cmp(OpGE, a, b)),
	}
	for _, op := range []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE, OpAdd, OpSub, OpMul, OpDiv} {
		exprs = append(exprs, &Expr{Kind: ExprCmp, Op: op, Args: []*Expr{a, b}})
	}
	buf := make([]byte, 0, 256)
	for _, e := range exprs {
		want := fmtExprString(e)
		if got := e.String(); got != want {
			t.Errorf("String() = %q, fmt reference %q", got, want)
		}
		if got := string(e.AppendString(buf[:0])); got != want {
			t.Errorf("AppendString = %q, fmt reference %q", got, want)
		}
	}
	last := exprs[len(exprs)-1]
	if n := testing.AllocsPerRun(10, func() { buf = last.AppendString(buf[:0]) }); n != 0 {
		t.Errorf("AppendString into a warm buffer allocates %.0f times", n)
	}
}

func TestExprClone(t *testing.T) {
	e := And(
		Cmp(OpGT, ColExpr(col(1, "a", "")), NumExpr(1)),
		Cmp(OpLT, ColExpr(col(2, "b", "")), NumExpr(2)),
	)
	c := e.Clone()
	c.Args[0].Op = OpLE
	if e.Args[0].Op != OpGT {
		t.Fatal("Clone aliases the original")
	}
}
