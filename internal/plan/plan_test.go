package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// heap is the allocator the tests build plans with.
var heap Heap

func col(id int, name, source string) Column {
	return Column{ID: ColumnID(id), Name: name, Source: source}
}

func TestAndFlattening(t *testing.T) {
	a := Cmp(heap, OpGT, ColExpr(heap, col(1, "a", "")), NumExpr(heap, 1))
	b := Cmp(heap, OpLT, ColExpr(heap, col(2, "b", "")), NumExpr(heap, 2))
	c := Cmp(heap, OpEQ, ColExpr(heap, col(3, "c", "")), NumExpr(heap, 3))
	got := And(heap, And(heap, a, b), c)
	if got.Kind != ExprAnd || len(got.Args) != 3 {
		t.Fatalf("And did not flatten: %v", got)
	}
	if And(heap) != nil {
		t.Fatal("And() should be nil")
	}
	if And(heap, a) != a {
		t.Fatal("And(a) should be a")
	}
	if And(heap, nil, a, nil) != a {
		t.Fatal("And should skip nils")
	}
}

func TestConjuncts(t *testing.T) {
	a := Cmp(heap, OpGT, ColExpr(heap, col(1, "a", "")), NumExpr(heap, 1))
	b := Cmp(heap, OpLT, ColExpr(heap, col(2, "b", "")), NumExpr(heap, 2))
	if got := Conjuncts(And(heap, a, b)); len(got) != 2 {
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
	e := And(heap,
		Cmp(heap, OpGT, ColExpr(heap, col(1, "a", "")), NumExpr(heap, 1)),
		Cmp(heap, OpEQ, ColExpr(heap, col(2, "b", "")), ColExpr(heap, col(3, "c", ""))),
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
	e := Cmp(heap, OpEQ, ColExpr(heap, a), ColExpr(heap, b))
	l, r, ok := e.EquiJoinSides()
	if !ok || l.ID != 1 || r.ID != 2 {
		t.Fatalf("EquiJoinSides = %v %v %v", l, r, ok)
	}
	if _, _, ok := Cmp(heap, OpLT, ColExpr(heap, a), ColExpr(heap, b)).EquiJoinSides(); ok {
		t.Fatal("non-equality accepted")
	}
	if _, _, ok := Cmp(heap, OpEQ, ColExpr(heap, a), NumExpr(heap, 5)).EquiJoinSides(); ok {
		t.Fatal("column-constant accepted")
	}
}

// buildJob constructs Select(Get) -> Project -> Output with the given
// constant in the predicate.
func buildJob(threshold float64, stream string) *Node {
	c := col(1, "a", stream+".a")
	get := NewGet(heap, stream, []Column{c})
	sel := NewSelect(heap, get, Cmp(heap, OpGT, ColExpr(heap, c), NumExpr(heap, threshold)))
	proj := NewProject(heap, sel, []Projection{{Expr: ColExpr(heap, c), Out: c}})
	return NewOutput(heap, proj, "out/x")
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
	get := NewGet(heap, "s", []Column{c})
	o1 := NewOutput(heap, get, "x")
	o2 := NewOutput(heap, get, "y")
	root := NewMulti(heap, o1, o2)
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
	g1 := NewGet(heap, "s2", []Column{col(1, "a", "s2.a")})
	g2 := NewGet(heap, "s1", []Column{col(2, "b", "s1.b")})
	j := NewJoin(heap, g1, g2, Cmp(heap, OpEQ, ColExpr(heap, col(1, "a", "s2.a")), ColExpr(heap, col(2, "b", "s1.b"))))
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
	get := NewGet(heap, "s", []Column{c})
	root := NewMulti(heap, NewOutput(heap, get, "x"), NewOutput(heap, get, "y"))
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
	e := And(heap,
		Cmp(heap, OpGT, ColExpr(heap, col(1, "a", "")), NumExpr(heap, 1.5)),
		Or(heap, Cmp(heap, OpEQ, ColExpr(heap, col(2, "b", "")), StrExpr(heap, "x")), Cmp(heap, OpNE, ColExpr(heap, col(3, "c", "")), NumExpr(heap, 2))),
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
	a, b := ColExpr(heap, col(1, "a", "")), ColExpr(heap, col(2, "é", ""))
	exprs := []*Expr{
		nil, a,
		NumExpr(heap, 1.5), NumExpr(heap, -0.0), NumExpr(heap, 1e21), NumExpr(heap, math.Inf(-1)), NumExpr(heap, math.NaN()),
		StrExpr(heap, ""), StrExpr(heap, "q\"uo\\te\n"), StrExpr(heap, "日本\xff"),
		&Expr{Kind: ExprArith, Op: OpDiv, Args: []*Expr{a, NumExpr(heap, 3)}},
		&Expr{Kind: ExprFunc, Fn: "ABS", Args: []*Expr{a, b}},
		&Expr{Kind: ExprFunc, Fn: "NOW"},
		&Expr{Kind: ExprCmp, Op: OpLE, Args: []*Expr{nil, b}},
		&Expr{Kind: ExprKind(99)},
		And(heap, Cmp(heap, OpGT, a, NumExpr(heap, 1.5)), Or(heap, Cmp(heap, OpEQ, b, StrExpr(heap, "x")), Cmp(heap, OpNE, a, b)), Cmp(heap, OpGE, a, b)),
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
	e := And(heap,
		Cmp(heap, OpGT, ColExpr(heap, col(1, "a", "")), NumExpr(heap, 1)),
		Cmp(heap, OpLT, ColExpr(heap, col(2, "b", "")), NumExpr(heap, 2)),
	)
	c := e.Clone()
	c.Args[0].Op = OpLE
	if e.Args[0].Op != OpGT {
		t.Fatal("Clone aliases the original")
	}
}
