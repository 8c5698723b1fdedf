package scopeql

import (
	"sync"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// pileFirstLen is the length of a pile's first backing array.
const pileFirstLen = 8

// pile is a bump allocator over one backing array, as cost.Arena is: take
// carves from the free tail and, when it is short, moves on to a fresh array
// (what was carved from the old one stays valid, and the old array dies with
// its last holder). A recycled pile doubles its array each time and rewinds
// (rewind, or reset, which also zeroes what it handed out), so a warm pile
// allocates nothing. A plan pile (fresh) gets arrays of a fixed size and is
// never rewound: what it carved belongs to the plan.
type pile[T any] struct {
	buf []T
	// next is the capacity of a fresh array; 0 doubles the current one.
	next int
}

// take returns n elements, capacity clipped to n so no holder can append
// into a neighbour; never nil, even for n = 0. They are zero unless the pile
// was rewound over them: add and keep overwrite them whole.
func (p *pile[T]) take(n int) []T {
	if p.buf == nil || len(p.buf)+n > cap(p.buf) {
		size := p.next
		if size == 0 {
			size = max(2*cap(p.buf), pileFirstLen)
		}
		p.buf = make([]T, 0, max(size, n))
	}
	off := len(p.buf)
	p.buf = p.buf[:off+n]
	return p.buf[off : off+n : off+n]
}

// add returns a pointer to a copy of v carved from the pile.
func (p *pile[T]) add(v T) *T {
	x := &p.take(1)[0]
	*x = v
	return x
}

// keep returns a copy of src carved from the pile, or nil for an empty src.
// The parser collects a list in a stack buffer and keeps it once it is
// complete, so a list costs the pile exactly its length.
func (p *pile[T]) keep(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := p.take(len(src))
	copy(dst, src)
	return dst
}

func (p *pile[T]) reset() {
	clear(p.buf)
	p.rewind()
}

func (p *pile[T]) rewind() { p.buf = p.buf[:0] }

// fresh lets go of the backing array, leaving it to what was carved from
// it, and has take carve from arrays of n elements (at least what it is
// asked for) from now on.
func (p *pile[T]) fresh(n int) {
	p.buf = nil
	p.next = n
}

// scratch is the memory of one front-end pass that dies with it: the token
// buffer, the piles every AST node and AST slice is carved from, and the
// binder's variable table and output list. Compile takes one from
// scratchPool and hands it back released, so a warm Compile allocates only
// the plan it returns; Parse and Bind run the same code over a scratch of
// their own that nothing recycles, so an AST a caller holds stays valid.
//
// Recycling is safe because nothing Compile returns points into recycled
// memory: token texts are substrings of src or shared keyword and symbol
// constants, so every string the AST and then the plan hold outlives the
// scratch; the binder copies names out of the AST and carves every plan
// node, schema, expression and slice it returns (a multi-output root's
// output list included) from the plan piles, whose arrays are fresh for
// each script and never rewound, because those are the output. An error
// carries only the text errf formatted.
type scratch struct {
	toks []Token

	// AST nodes.
	scripts  pile[Script]
	assigns  pile[AssignStmt]
	outputs  pile[OutputStmt]
	varRefs  pile[VarRef]
	extracts pile[ExtractExpr]
	selects  pile[SelectExpr]
	unions   pile[UnionExpr]
	procs    pile[ProcessExpr]
	reduces  pile[ReduceExpr]
	cols     pile[ColName] // column leaves and GROUP BY / ON key lists
	nums     pile[NumLit]
	strs     pile[StrLit]
	bins     pile[BinExpr]
	calls    pile[CallExpr]

	// AST slices.
	stmts   pile[Stmt]
	rels    pile[RelExpr]
	scalars pile[ScalarExpr]
	names   pile[string]
	items   pile[SelectItem]
	joins   pile[JoinClause]
	orders  pile[OrderKey]

	// Binder state: the script's variables and its outputs so far, and the
	// variables' schema widths for planSize.
	vars   map[string]*boundVar
	bound  pile[boundVar]
	outs   []*plan.Node
	widths map[string]int

	planPiles
}

// planPiles is the plan's memory and the plan.Alloc the binder builds with:
// bind starts each pile afresh with one array of the size planSize counts,
// and the plan it returns owns what they carved, so release only lets go.
type planPiles struct {
	nodes    pile[plan.Node]
	exprs    pile[plan.Expr]
	columns  pile[plan.Column] // schemas and key lists
	kids     pile[*plan.Node]
	args     pile[*plan.Expr]
	projs    pile[plan.Projection]
	aggs     pile[plan.Agg]
	sortKeys pile[plan.SortKey]
}

func (p *planPiles) Node() *plan.Node            { return &p.nodes.take(1)[0] }
func (p *planPiles) Expr() *plan.Expr            { return &p.exprs.take(1)[0] }
func (p *planPiles) Children(n int) []*plan.Node { return p.kids.take(n) }
func (p *planPiles) ExprArgs(n int) []*plan.Expr { return p.args.take(n) }
func (p *planPiles) Columns(n int) []plan.Column { return p.columns.take(n) }

// scratchPool holds the idle scratches of Compile. The runtime drops pooled
// entries under memory pressure, so a one-off giant script cannot pin its
// scratch forever.
var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

// compile is Compile on sc, which the caller releases afterwards.
func (sc *scratch) compile(src string, cat *catalog.Catalog) (*plan.Node, error) {
	s, err := sc.parse(src)
	if err != nil {
		return nil, err
	}
	return sc.bind(s, cat)
}

// release rewinds sc, leaving it as good as a new one. It zeroes the
// binder's state, which points into the returned plan, and lets go of the
// plan piles. The token buffer and the AST piles are rewound without being
// zeroed: every string they hold is a substring of a source or a shared
// constant, so stale entries can pin only earlier scripts' sources, and only
// while the scratch is reused or pooled (the pool drops idle entries within
// two collections).
func (sc *scratch) release() {
	sc.toks = sc.toks[:0]
	sc.scripts.rewind()
	sc.assigns.rewind()
	sc.outputs.rewind()
	sc.varRefs.rewind()
	sc.extracts.rewind()
	sc.selects.rewind()
	sc.unions.rewind()
	sc.procs.rewind()
	sc.reduces.rewind()
	sc.cols.rewind()
	sc.nums.rewind()
	sc.strs.rewind()
	sc.bins.rewind()
	sc.calls.rewind()
	sc.stmts.rewind()
	sc.rels.rewind()
	sc.scalars.rewind()
	sc.names.rewind()
	sc.items.rewind()
	sc.joins.rewind()
	sc.orders.rewind()
	clear(sc.vars)
	clear(sc.widths)
	sc.bound.reset()
	// outs only ever grows between releases, so past its length the
	// backing array is already zero.
	clear(sc.outs)
	sc.outs = sc.outs[:0]
	sc.start(planSize{}) // lets go of the plan
}

// start starts the piles afresh, each with one array of what z counts (none
// for a zero count).
func (p *planPiles) start(z planSize) {
	p.nodes.fresh(z.nodes)
	p.exprs.fresh(z.exprs)
	p.columns.fresh(z.columns)
	p.kids.fresh(z.kids)
	p.args.fresh(z.args)
	p.projs.fresh(z.projs)
	p.aggs.fresh(z.aggs)
	p.sortKeys.fresh(z.sortKeys)
}
