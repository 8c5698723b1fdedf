package cascades

import (
	"unsafe"

	"steerq/internal/plan"
)

// The carve methods are how rules allocate: every payload node, expression,
// column, aggregate, projection, sort-key and hash-key slice, rule-output
// wrapper and implementation prototype a rule builds comes from the memo's
// arena instead of the heap, so a compile's rule output is recycled with its
// session rather than collected (DESIGN.md, "Arena ownership"). A carved
// slice's capacity is clipped to what was asked for, so appending past it
// moves the slice to the heap rather than into a neighbour.
//
// Two lifetimes:
//
//   - payloads — nodes, their predicate trees, their column, aggregate,
//     projection and sort-key slices, prototypes, child requirements and
//     hash keys — are memo-side: interned expressions and cached prototypes
//     keep them until the session closes, and extraction copies out
//     whatever a returned plan keeps;
//   - what only carries a rule's output to Intern — RNodes, their child
//     lists, the result list and predicate scratch lists — is rewound after
//     every rule application (search.explore).

// Expr carves a zeroed expression node. With ExprArgs it makes the memo a
// plan.ExprAlloc, so rules build predicates with plan.ColExpr, plan.And and
// the other expression constructors.
func (m *Memo) Expr() *plan.Expr { return m.arena.exprNodes.one(exprNodesChunkLen) }

// ExprArgs carves n zeroed expression arguments.
func (m *Memo) ExprArgs(n int) []*plan.Expr { return m.arena.exprArgs.take(n, exprArgsChunkLen) }

// Node carves a zeroed payload node.
func (m *Memo) Node() *plan.Node { return m.arena.nodes.one(nodeChunkLen) }

// Columns carves n zeroed columns.
func (m *Memo) Columns(n int) []plan.Column { return m.arena.cols.take(n, colsChunkLen) }

// Concat carves the columns of a followed by those of b.
func (m *Memo) Concat(a, b []plan.Column) []plan.Column {
	out := m.Columns(len(a) + len(b))
	copy(out[copy(out, a):], b)
	return out
}

// Aggs carves n zeroed aggregates.
func (m *Memo) Aggs(n int) []plan.Agg { return m.arena.aggs.take(n, aggsChunkLen) }

// Projections carves n zeroed projections.
func (m *Memo) Projections(n int) []plan.Projection { return m.arena.projs.take(n, projsChunkLen) }

// SortKeys carves n zeroed sort keys.
func (m *Memo) SortKeys(n int) []plan.SortKey { return m.arena.sortKeys.take(n, sortKeysChunkLen) }

// HashDist returns the hash distribution on cols, its keys carved in the
// canonical ascending order every hash requirement is compared in. Key lists
// are tiny, so an insertion sort beats sorting through an interface.
func (m *Memo) HashDist(cols []plan.Column) plan.Distribution {
	ids := m.arena.ids.take(len(cols), idsChunkLen)
	for i, c := range cols {
		ids[i] = c.ID
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return plan.Distribution{Kind: plan.DistHash, Keys: ids}
}

// Dists carves n zeroed distributions: a prototype's child requirements.
func (m *Memo) Dists(n int) []plan.Distribution { return m.arena.dists.take(n, distsChunkLen) }

// Protos carves n zeroed prototypes and the list holding them.
func (m *Memo) Protos(n int) []*PhysProto {
	out := m.arena.protoLists.take(n, protoListsChunkLen)
	for i := range out {
		out[i] = m.arena.protos.one(protosChunkLen)
	}
	return out
}

// Name returns base+suffix, built once per session: rule-created columns
// (partial and eager aggregates) repeat the same few names across every memo
// of a session. The string itself is an ordinary heap string, so plans may
// keep it.
func (m *Memo) Name(base, suffix string) string {
	k := nameKey{base, suffix}
	if s, ok := m.arena.names[k]; ok {
		return s
	}
	s := base + suffix
	m.arena.names[k] = s
	return s
}

// nameKey is a Name request.
type nameKey struct{ base, suffix string }

// RNode carves a rule-output node over the given children.
func (m *Memo) RNode(n *plan.Node, children ...RChild) *RNode {
	rn := m.arena.rnodes.one(rnodesChunkLen)
	rn.Node = n
	rn.Children = m.RChildren(len(children))
	copy(rn.Children, children)
	return rn
}

// RChildren carves n zeroed rule-output children.
func (m *Memo) RChildren(n int) []RChild { return m.arena.rchildren.take(n, rchildrenChunkLen) }

// Results carves an empty rule-output list with room for n results: the
// list Apply returns.
func (m *Memo) Results(n int) []*RNode { return m.arena.results.take(n, resultsChunkLen)[:0] }

// Preds carves an empty predicate list with room for n conjuncts, scratch
// for assembling a conjunction (plan.And copies its arguments).
func (m *Memo) Preds(n int) []*plan.Expr { return m.arena.preds.take(n, predsChunkLen)[:0] }

// applied rewinds what carried one rule application's output to Intern.
func (sc *searchScratch) applied() {
	sc.rnodes.reset()
	sc.rchildren.reset()
	sc.results.reset()
	sc.preds.reset()
}

// owns reports whether x was carved from the slab: whether its backing array
// lies inside one of the chunks handed out since the last reset. Extraction
// asks it to copy exactly the slices a returned plan must not keep pointing
// into the arena; the address arithmetic is the same overlap test the
// standard library's slices package uses.
func (s *slab[T]) owns(x []T) bool {
	if cap(x) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	for _, c := range s.chunks[:s.used] {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
		if p >= lo && p < lo+uintptr(len(c))*unsafe.Sizeof(c[0]) {
			return true
		}
	}
	return false
}

// keptExpr returns e, or a heap copy of it in which every node and argument
// list the arena owns is copied: a carved node may point at the input plan's
// nodes and a heap node (plan.Cmp over a carved column) at carved ones, so
// the whole tree is walked and only what it shares with the arena is
// replaced.
func (sc *searchScratch) keptExpr(e *plan.Expr) *plan.Expr {
	if e == nil {
		return nil
	}
	var args []*plan.Expr // set once an argument changes
	for i, a := range e.Args {
		ka := sc.keptExpr(a)
		if ka != a && args == nil {
			args = make([]*plan.Expr, len(e.Args))
			copy(args, e.Args[:i])
		}
		if args != nil {
			args[i] = ka
		}
	}
	if args == nil && sc.exprArgs.owns(e.Args) {
		args = append([]*plan.Expr(nil), e.Args...)
	}
	if args == nil && !sc.exprNodes.owns(unsafe.Slice(e, 1)) {
		return e
	}
	cp := new(plan.Expr)
	*cp = *e
	if args != nil {
		cp.Args = args
	}
	return cp
}

// kept returns x, or a heap copy of it when the slab owns it.
func kept[T any](s *slab[T], x []T) []T {
	if !s.owns(x) {
		return x
	}
	return append([]T(nil), x...)
}
