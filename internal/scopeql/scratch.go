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
// twice the size (what was carved from the old one stays valid, and the old
// array dies with its last holder). reset zeroes what the current array
// handed out and rewinds, so a warm pile allocates nothing.
type pile[T any] struct{ buf []T }

// take returns n zeroed elements, capacity clipped to n so no holder can
// append into a neighbour.
func (p *pile[T]) take(n int) []T {
	if len(p.buf)+n > cap(p.buf) {
		p.buf = make([]T, 0, max(2*cap(p.buf), n, pileFirstLen))
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
	p.buf = p.buf[:0]
}

// scratch is the memory of one front-end pass that dies with it: the token
// buffer, the piles every AST node and AST slice is carved from, and the
// binder's variable table and output list. Compile takes one from
// scratchPool and hands it back cleared, so a warm Compile allocates only the
// plan it returns; Parse and Bind run the same code over a scratch of their
// own that nothing recycles, so an AST a caller holds stays valid.
//
// Recycling is safe because nothing Compile returns points into the scratch:
// token texts are substrings of src or shared keyword and symbol constants,
// so every string the AST and then the plan hold outlives the scratch; the
// binder copies names out of the AST and builds every plan node, schema,
// expression and slice it returns with fresh allocations (a multi-output
// root's output list included), because those are the output. An error
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

	// Binder state: the script's variables and its outputs so far.
	vars  map[string]*boundVar
	bound pile[boundVar]
	outs  []*plan.Node
}

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

// release zeroes everything the pass carved or filed — which also drops the
// references into src and into the returned plan — and rewinds, leaving sc as
// good as a new one.
func (sc *scratch) release() {
	// toks and outs only ever grow between releases, so past their length
	// the backing arrays are already zero.
	clear(sc.toks)
	sc.toks = sc.toks[:0]
	sc.scripts.reset()
	sc.assigns.reset()
	sc.outputs.reset()
	sc.varRefs.reset()
	sc.extracts.reset()
	sc.selects.reset()
	sc.unions.reset()
	sc.procs.reset()
	sc.reduces.reset()
	sc.cols.reset()
	sc.nums.reset()
	sc.strs.reset()
	sc.bins.reset()
	sc.calls.reset()
	sc.stmts.reset()
	sc.rels.reset()
	sc.scalars.reset()
	sc.names.reset()
	sc.items.reset()
	sc.joins.reset()
	sc.orders.reset()
	clear(sc.vars)
	sc.bound.reset()
	clear(sc.outs)
	sc.outs = sc.outs[:0]
}
