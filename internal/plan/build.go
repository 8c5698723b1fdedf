package plan

// ExprAlloc is the memory expressions are built from: Expr returns a zeroed
// expression and ExprArgs a zeroed argument list of length and capacity n.
type ExprAlloc interface {
	Expr() *Expr
	ExprArgs(n int) []*Expr
}

// Alloc is the memory a plan is built from: ExprAlloc's, plus a zeroed node
// and zeroed child and column lists of length and capacity n. The binder
// passes the piles it sized for the script, the optimizer's rules pass their
// memo (an ExprAlloc), and tests pass Heap.
type Alloc interface {
	ExprAlloc
	Node() *Node
	Children(n int) []*Node
	Columns(n int) []Column
}

// Heap is the Alloc that allocates each node, expression and list on its
// own.
type Heap struct{}

func (Heap) Node() *Node            { return new(Node) }
func (Heap) Expr() *Expr            { return new(Expr) }
func (Heap) Children(n int) []*Node { return make([]*Node, n) }
func (Heap) ExprArgs(n int) []*Expr { return make([]*Expr, n) }
func (Heap) Columns(n int) []Column { return make([]Column, n) }

// The constructors below are the one way a plan is built. Each keeps the
// children and payload it is handed as they are — it copies no slice — and
// carves from a only what it derives: the node or expression, a unary or
// binary node's child list, the schema of a Project, Join or GroupBy, and a
// junction's flattened argument list. So a caller that counted what it
// carves (the binder's sizePlan) gets exactly that.

// NewGet returns a Get node scanning the named stream with the given output
// schema.
func NewGet(a Alloc, table string, schema []Column) *Node {
	n := a.Node()
	n.Op, n.Table, n.Schema = OpGet, table, schema
	return n
}

// unary returns a node of op over child with child's schema; the caller
// sets its payload.
func unary(a Alloc, op Op, child *Node) *Node {
	kids := a.Children(1)
	kids[0] = child
	n := a.Node()
	n.Op, n.Children, n.Schema = op, kids, child.Schema
	return n
}

// NewSelect returns a Select node filtering child by pred.
func NewSelect(a Alloc, child *Node, pred *Expr) *Node {
	n := unary(a, OpSelect, child)
	n.Pred = pred
	return n
}

// NewProject returns a Project node computing the given projections.
func NewProject(a Alloc, child *Node, projs []Projection) *Node {
	n := unary(a, OpProject, child)
	n.Projs, n.Schema = projs, a.Columns(len(projs))
	for i, p := range projs {
		n.Schema[i] = p.Out
	}
	return n
}

// NewJoin returns an inner Join of left and right on pred.
func NewJoin(a Alloc, left, right *Node, pred *Expr) *Node {
	kids := a.Children(2)
	kids[0], kids[1] = left, right
	schema := a.Columns(len(left.Schema) + len(right.Schema))
	copy(schema[copy(schema, left.Schema):], right.Schema)
	n := a.Node()
	n.Op, n.Children, n.Pred, n.Schema = OpJoin, kids, pred, schema
	return n
}

// NewGroupBy returns a GroupBy node: its schema is the keys, then the
// aggregates' outputs.
func NewGroupBy(a Alloc, child *Node, keys []Column, aggs []Agg) *Node {
	n := unary(a, OpGroupBy, child)
	n.GroupKeys, n.Aggs, n.Schema = keys, aggs, a.Columns(len(keys)+len(aggs))
	copy(n.Schema, keys)
	for i, g := range aggs {
		n.Schema[len(keys)+i] = g.Out
	}
	return n
}

// NewUnionAll returns an n-ary UnionAll over at least one child. All
// children must share arity; the schema is taken from the first child.
func NewUnionAll(a Alloc, children ...*Node) *Node {
	n := a.Node()
	n.Op, n.Children, n.Schema = OpUnionAll, children, children[0].Schema
	return n
}

// NewProcess returns a Process node applying the named UDO. The schema is
// preserved (row-wise transforms in the dialect keep columns).
func NewProcess(a Alloc, child *Node, processor string) *Node {
	n := unary(a, OpProcess, child)
	n.Processor = processor
	return n
}

// NewReduce returns a Reduce node applying the named UDO per key group.
func NewReduce(a Alloc, child *Node, keys []Column, processor string) *Node {
	n := unary(a, OpReduce, child)
	n.ReduceKeys, n.Processor = keys, processor
	return n
}

// NewTop returns a Top-N node ordered by the given keys.
func NewTop(a Alloc, child *Node, topN int, keys []SortKey) *Node {
	n := unary(a, OpTop, child)
	n.TopN, n.SortKeys = topN, keys
	return n
}

// NewOutput returns an Output node writing child to path.
func NewOutput(a Alloc, child *Node, path string) *Node {
	n := unary(a, OpOutput, child)
	n.OutputPath = path
	return n
}

// NewMulti returns the virtual root over a job's outputs.
func NewMulti(a Alloc, outputs ...*Node) *Node {
	n := a.Node()
	n.Op, n.Children = OpMulti, outputs
	return n
}

// ColExpr returns a column reference expression.
func ColExpr(a ExprAlloc, c Column) *Expr {
	e := a.Expr()
	e.Kind, e.Col = ExprColumn, c
	return e
}

// NumExpr returns a numeric literal expression.
func NumExpr(a ExprAlloc, v float64) *Expr {
	e := a.Expr()
	e.Kind, e.Lit = ExprConst, Literal{F: v}
	return e
}

// StrExpr returns a string literal expression.
func StrExpr(a ExprAlloc, s string) *Expr {
	e := a.Expr()
	e.Kind, e.Lit = ExprConst, Literal{IsString: true, S: s}
	return e
}

// Cmp returns l op r: a comparison, or arithmetic (ExprArith) when op is
// OpAdd or a later operator.
func Cmp(a ExprAlloc, op CmpOp, l, r *Expr) *Expr {
	args := a.ExprArgs(2)
	args[0], args[1] = l, r
	e := a.Expr()
	e.Kind, e.Op, e.Args = ExprCmp, op, args
	if op >= OpAdd {
		e.Kind = ExprArith
	}
	return e
}

// And returns the conjunction of preds (see junction).
func And(a ExprAlloc, preds ...*Expr) *Expr { return junction(a, ExprAnd, preds) }

// Or returns the disjunction of preds (see junction).
func Or(a ExprAlloc, preds ...*Expr) *Expr { return junction(a, ExprOr, preds) }

// junction returns the ExprAnd or ExprOr (kind) of preds. Nils are dropped
// and an argument of the same kind contributes its arguments; what is left
// is carved as one list, unless it is nothing (nil is returned) or a single
// argument (returned as itself).
func junction(a ExprAlloc, kind ExprKind, preds []*Expr) *Expr {
	n, last := 0, (*Expr)(nil)
	for _, p := range preds {
		switch {
		case p == nil:
		case p.Kind == kind:
			if len(p.Args) > 0 {
				n, last = n+len(p.Args), p.Args[len(p.Args)-1]
			}
		default:
			n, last = n+1, p
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return last
	}
	args := a.ExprArgs(n)[:0]
	for _, p := range preds {
		switch {
		case p == nil:
		case p.Kind == kind:
			args = append(args, p.Args...)
		default:
			args = append(args, p)
		}
	}
	e := a.Expr()
	e.Kind, e.Args = kind, args
	return e
}
