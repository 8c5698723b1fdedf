package plan

import (
	"slices"
	"testing"
)

// countingHeap is Heap counting what it carves, by kind.
type countingHeap struct {
	Heap
	nodes, exprs, kids, args, cols int
}

func (c *countingHeap) Node() *Node            { c.nodes++; return c.Heap.Node() }
func (c *countingHeap) Expr() *Expr            { c.exprs++; return c.Heap.Expr() }
func (c *countingHeap) Children(n int) []*Node { c.kids++; return c.Heap.Children(n) }
func (c *countingHeap) ExprArgs(n int) []*Expr { c.args++; return c.Heap.ExprArgs(n) }
func (c *countingHeap) Columns(n int) []Column { c.cols++; return c.Heap.Columns(n) }

// TestJunctions: And and Or over every combination of up to three arguments
// drawn from nil, leaves, a junction of the other kind and junctions of
// their own kind (empty, one-armed and two-armed). Nils are dropped, an
// own-kind argument contributes its arguments, and every argument pointer is
// kept: no argument gives nil and one is returned as itself. Otherwise the
// result's argument list is carved exactly once, with one expression, and
// its capacity is clipped to its length.
func TestJunctions(t *testing.T) {
	x, y, z := NumExpr(heap, 1), NumExpr(heap, 2), NumExpr(heap, 3)
	for _, kind := range []ExprKind{ExprAnd, ExprOr} {
		build, other := And, Or
		if kind == ExprOr {
			build, other = Or, And
		}
		pool := []*Expr{
			nil, x, y,
			other(heap, x, z),
			{Kind: kind},
			{Kind: kind, Args: []*Expr{z}},
			build(heap, y, z),
		}
		var args []*Expr
		var rec func(depth int)
		rec = func(depth int) {
			var want []*Expr
			for _, p := range args {
				switch {
				case p == nil:
				case p.Kind == kind:
					want = append(want, p.Args...)
				default:
					want = append(want, p)
				}
			}
			var a countingHeap
			got := build(&a, args...)
			switch {
			case len(want) == 0:
				if got != nil {
					t.Errorf("%v of %v = %v, want nil", kind, args, got)
				}
			case len(want) == 1:
				if got != want[0] {
					t.Errorf("%v of %v = %p, want its sole argument %p", kind, args, got, want[0])
				}
			default:
				if got.Kind != kind || !slices.Equal(got.Args, want) {
					t.Errorf("%v of %v = %v %v, want arguments %v", kind, args, got.Kind, got.Args, want)
				}
				if cap(got.Args) != len(got.Args) {
					t.Errorf("%v of %v: %d arguments in a list of capacity %d", kind, args, len(got.Args), cap(got.Args))
				}
			}
			if carved := min(len(want)/2, 1); a.args != carved || a.exprs != carved {
				t.Errorf("%v of %v carved %d argument lists and %d expressions, want %d of each", kind, args, a.args, a.exprs, carved)
			}
			if depth == 3 {
				return
			}
			for _, p := range pool {
				args = append(args, p)
				rec(depth + 1)
				args = args[:len(args)-1]
			}
		}
		rec(0)
	}
}

// TestCmpKind: Cmp builds a comparison for the comparison operators and
// arithmetic from OpAdd on, over exactly the operands it is given.
func TestCmpKind(t *testing.T) {
	l, r := ColExpr(heap, col(1, "a", "")), NumExpr(heap, 2)
	for op := OpEQ; op <= OpDiv; op++ {
		want := ExprCmp
		if op == OpAdd || op == OpSub || op == OpMul || op == OpDiv {
			want = ExprArith
		}
		e := Cmp(heap, op, l, r)
		if e.Kind != want || e.Op != op || len(e.Args) != 2 || cap(e.Args) != 2 || e.Args[0] != l || e.Args[1] != r {
			t.Errorf("Cmp(%v) = %+v, want kind %v over the operands", op, *e, want)
		}
	}
}

// TestConstructorsCarveWhatTheyDerive builds every operator over a counting
// heap. Each constructor keeps the slices it is handed (the same backing
// arrays), carves one node, a child list for one or two children and a
// schema only for Project, Join and GroupBy, derives that schema, and
// passes a unary node's child schema through.
func TestConstructorsCarveWhatTheyDerive(t *testing.T) {
	a, b, c := col(1, "a", "s.a"), col(2, "b", "s.b"), col(3, "c", "")
	schema := []Column{a, b}
	pred := Cmp(heap, OpGT, ColExpr(heap, a), NumExpr(heap, 1))
	projs := []Projection{{Expr: ColExpr(heap, b), Out: c}}
	keys := []Column{a}
	aggs := []Agg{{Fn: "COUNT", Out: c}}
	sortKeys := []SortKey{{Col: b, Desc: true}}
	get := NewGet(heap, "s", schema)
	other := NewGet(heap, "t", []Column{c})
	kids := []*Node{get, other}

	type carves struct{ nodes, kids, cols int }
	unary := carves{1, 1, 0}
	cases := []struct {
		op     Op
		build  func(Alloc) *Node
		carves carves
		schema []Column
	}{
		{OpGet, func(x Alloc) *Node { return NewGet(x, "s", schema) }, carves{1, 0, 0}, schema},
		{OpSelect, func(x Alloc) *Node { return NewSelect(x, get, pred) }, unary, schema},
		{OpProject, func(x Alloc) *Node { return NewProject(x, get, projs) }, carves{1, 1, 1}, []Column{c}},
		{OpJoin, func(x Alloc) *Node { return NewJoin(x, get, other, pred) }, carves{1, 1, 1}, []Column{a, b, c}},
		{OpGroupBy, func(x Alloc) *Node { return NewGroupBy(x, get, keys, aggs) }, carves{1, 1, 1}, []Column{a, c}},
		{OpUnionAll, func(x Alloc) *Node { return NewUnionAll(x, kids...) }, carves{1, 0, 0}, schema},
		{OpProcess, func(x Alloc) *Node { return NewProcess(x, get, "P") }, unary, schema},
		{OpReduce, func(x Alloc) *Node { return NewReduce(x, get, keys, "R") }, unary, schema},
		{OpTop, func(x Alloc) *Node { return NewTop(x, get, 5, sortKeys) }, unary, schema},
		{OpOutput, func(x Alloc) *Node { return NewOutput(x, get, "out") }, unary, schema},
		{OpMulti, func(x Alloc) *Node { return NewMulti(x, kids...) }, carves{1, 0, 0}, nil},
	}
	for _, tc := range cases {
		var h countingHeap
		n := tc.build(&h)
		if n.Op != tc.op {
			t.Fatalf("built %v, want %v", n.Op, tc.op)
		}
		if got := (carves{h.nodes, h.kids, h.cols}); got != tc.carves || h.exprs+h.args != 0 {
			t.Errorf("%v carved %+v and %d expressions, %d argument lists; want %+v", n.Op, got, h.exprs, h.args, tc.carves)
		}
		if !slices.Equal(n.Schema, tc.schema) || cap(n.Schema) != len(n.Schema) {
			t.Errorf("%v schema %v (capacity %d), want %v", n.Op, n.Schema, cap(n.Schema), tc.schema)
		}
		if cap(n.Children) != len(n.Children) {
			t.Errorf("%v has %d children in a list of capacity %d", n.Op, len(n.Children), cap(n.Children))
		}
		switch n.Op {
		case OpGet:
			if n.Table != "s" || &n.Schema[0] != &schema[0] {
				t.Errorf("Get does not keep its table or schema: %+v", *n)
			}
		case OpSelect:
			if n.Pred != pred || n.Children[0] != get {
				t.Errorf("Select does not keep its child or predicate: %+v", *n)
			}
		case OpProject:
			if &n.Projs[0] != &projs[0] {
				t.Errorf("Project does not keep its projections")
			}
		case OpJoin:
			if n.Pred != pred || n.Children[0] != get || n.Children[1] != other {
				t.Errorf("Join does not keep its children or predicate: %+v", *n)
			}
		case OpGroupBy:
			if &n.GroupKeys[0] != &keys[0] || &n.Aggs[0] != &aggs[0] {
				t.Errorf("GroupBy does not keep its keys or aggregates")
			}
		case OpUnionAll, OpMulti:
			if &n.Children[0] != &kids[0] {
				t.Errorf("%v does not keep its child list", n.Op)
			}
		case OpProcess:
			if n.Processor != "P" {
				t.Errorf("Process = %+v", *n)
			}
		case OpReduce:
			if n.Processor != "R" || &n.ReduceKeys[0] != &keys[0] {
				t.Errorf("Reduce does not keep its keys or processor")
			}
		case OpTop:
			if n.TopN != 5 || &n.SortKeys[0] != &sortKeys[0] {
				t.Errorf("Top does not keep its count or sort keys")
			}
		case OpOutput:
			if n.OutputPath != "out" {
				t.Errorf("Output = %+v", *n)
			}
		}
	}
	if len(cases) != len(opNames) {
		t.Fatalf("%d operators built, %d declared", len(cases), len(opNames))
	}
}
