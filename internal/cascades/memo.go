// Package cascades implements a memo-based, top-down Cascades-style query
// optimizer in the style of Graefe's framework, which the SCOPE optimizer
// follows (§3.1): transformation rules expand the logical search space inside
// a memo of equivalence groups, implementation rules produce physical
// operators, enforcer rules (EnforceExchange) satisfy distribution
// requirements, and the cheapest physical alternative per group wins.
//
// Unlike a textbook implementation, the engine tracks *which rule produced
// every expression*. The union of rule IDs along the derivation chain of the
// final plan is the job's rule signature (Definition 3.2 of the paper), the
// central abstraction of steerq.
//
// Compilation dominates the pipeline's cost; TestSessionWarmCompileAllocations,
// TestCompileAllocationBudget (internal/rules) and the root
// BenchmarkSessionCandidates guard its allocations.
package cascades

import (
	"bytes"
	"encoding/binary"
	"math"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

// GroupID identifies a memo group.
type GroupID int

// MExpr is a logical multi-expression: an operator payload plus child group
// references.
type MExpr struct {
	// Node carries the operator payload (Op plus per-op fields). Its
	// Children field is unused; children live in the Children group list.
	Node     *plan.Node
	Children []*Group
	Group    *Group

	// RuleID is the rule that created this expression, or -1 for
	// expressions of the initial plan.
	RuleID int

	// Provenance holds the rule IDs on the derivation chain from the
	// initial plan to this expression (including RuleID), one bit per rule.
	// These rules "directly contribute" to any final plan using this
	// expression. Stored as a bitset so chaining a derivation is a value
	// copy plus one Set, and the signature union during extraction is a
	// single Or — no per-intern slice copies.
	Provenance bitvec.Vector

	fired bitvec.Vector // transformation rules already applied to this expr

	// impls caches what each implementation rule of implementsFor(Node.Op)
	// returned for this expression, filled rule by rule as the physical
	// phases of the memo's compiles consult them (search.groupCandidates).
	impls []implAlt

	// key is the expression's interning key (appendExprKey), carved from
	// the arena's memo side. Interning compares a probe against it.
	key []byte
	// bucketNext chains expressions sharing an interning hash bucket
	// (see Memo.buckets). Intrusive so inserting an expression into the
	// index never allocates.
	bucketNext *MExpr
}

func (e *MExpr) firedRule(id int) bool { return e.fired.Get(id) }

func (e *MExpr) markFired(id int) { e.fired.Set(id) }

// Group is an equivalence class of logical expressions producing the same
// result set.
type Group struct {
	ID     GroupID
	Exprs  []*MExpr
	Schema []plan.Column // canonical output columns
	Props  cost.Props    // estimated statistics (derived from first expr)
}

// Memo is the space of explored plans.
type Memo struct {
	Groups []*Group
	// Root is the group of the job's root operator.
	Root *Group

	est *cost.Estimator
	// buckets is the interning index: expressions bucketed by a 64-bit
	// FNV-1a hash of their key (appendExprKey), chained through the
	// intrusive MExpr.bucketNext. The key is the identity; the hash only
	// picks the bucket, and a probe is told apart from the expressions it
	// shares a bucket with by comparing keys (MExpr.key).
	buckets map[uint64]*MExpr
	// scratch is the reusable buffer a probe's key is serialized into.
	// Once grown to the largest key it is never reallocated.
	scratch []byte
	// hashMask degrades hashes for tests: all-ones in production, 0 forces
	// every expression into one bucket so the key comparison along the
	// chain is exercised end to end.
	hashMask uint64
	// collisions counts interning probes that walked past an expression
	// with a different key sharing their hash bucket. A healthy 64-bit hash
	// keeps this at (or very near) zero; the observability layer surfaces it
	// so a degraded hash shows up as a counter, not as silent slowdown.
	collisions uint64

	byNode  map[*plan.Node]*Group
	nextCol plan.ColumnID

	// arena owns every expression, group struct, child-group slice and
	// payload copy and group statistic of the memo (see scratch.go): a
	// Session's recycled arena, or a private one under a standalone NewMemo.
	// propsBuf and schemaBuf are reusable scratch for deriveProps (read-only
	// to the estimator).
	arena     *searchScratch
	propsBuf  []cost.Props
	schemaBuf [][]plan.Column

	// footprint is the decision footprint of the exploration that built
	// the memo: the transformation-rule bits it read (⊆ the rule set's
	// transformMask). Every compile sharing the memo starts from it.
	footprint bitvec.Vector

	// exprLimit bounds expressions per group; totalLimit bounds the whole
	// memo. Exceeding either stops further exploration (big-data jobs have
	// hundreds of operators; SCOPE bounds its search the same way). They are
	// memoExprLimit and memoTotalLimit; only tests lower them.
	exprLimit  int
	totalLimit int
	totalExprs int
}

// NewMemo builds a memo over the logical plan DAG rooted at root, deriving
// group properties with the given estimator.
func NewMemo(root *plan.Node, est *cost.Estimator) *Memo {
	return newMemoArena(root, est, newSearchScratch())
}

// newMemoArena builds a memo whose slabs, interning maps and scratch buffers
// come from sc. The caller owns the arena's lifecycle: it must not recycle
// sc before it is done with the memo (see Session.Close).
func newMemoArena(root *plan.Node, est *cost.Estimator, sc *searchScratch) *Memo {
	m := &Memo{
		Groups:     sc.groupList,
		est:        est,
		buckets:    sc.buckets,
		scratch:    sc.keyScratch,
		hashMask:   ^uint64(0),
		byNode:     sc.byNode,
		arena:      sc,
		propsBuf:   sc.memoProps,
		schemaBuf:  sc.memoSchema,
		exprLimit:  memoExprLimit,
		totalLimit: memoTotalLimit,
	}
	maxID := plan.ColumnID(0)
	root.Walk(func(n *plan.Node) {
		for _, c := range n.Schema {
			if c.ID > maxID {
				maxID = c.ID
			}
		}
	})
	m.nextCol = maxID
	m.Root = m.groupForNode(root)
	return m
}

// Estimator returns the estimator used to derive group properties. Rules may
// use it for guard conditions (e.g. conjunct ordering by estimated
// selectivity).
func (m *Memo) Estimator() *cost.Estimator { return m.est }

// NewColID allocates a fresh column ID for rule-created columns (e.g.
// partial-aggregation outputs).
func (m *Memo) NewColID() plan.ColumnID {
	m.nextCol++
	return m.nextCol
}

// lookupExpr finds the group already holding an expression with the same
// key. The returned hash is the expression's interning hash and must be
// passed unchanged to insertExpr when the caller interns a new expression;
// the key stays in m.scratch until then.
func (m *Memo) lookupExpr(n *plan.Node, children []*Group) (*Group, uint64, bool) {
	h := m.exprHash(n, children)
	for e := m.buckets[h]; e != nil; e = e.bucketNext {
		if bytes.Equal(m.scratch, e.key) {
			return e.Group, h, true
		}
		m.collisions++
	}
	return nil, h, false
}

// Collisions returns the number of interning hash collisions this memo
// resolved by comparing keys.
func (m *Memo) Collisions() uint64 { return m.collisions }

// insertExpr records a newly interned expression in the index under the hash
// returned by the matching lookupExpr call, keeping a copy of the key that
// call left in m.scratch (nothing interns in between). The expression is
// prepended to its bucket chain; chain order is irrelevant because keys are
// unique among the memo's expressions.
func (m *Memo) insertExpr(e *MExpr, hash uint64) {
	e.key = m.arena.keys.take(len(m.scratch), keysChunkLen)
	copy(e.key, m.scratch)
	e.bucketNext = m.buckets[hash]
	m.buckets[hash] = e
}

// newMExpr returns a zeroed expression carved from the arena.
func (m *Memo) newMExpr() *MExpr { return m.arena.mexprs.one(mexprChunkLen) }

// newGroup returns a zeroed group carved from the arena.
func (m *Memo) newGroup() *Group { return m.arena.groups.one(groupChunkLen) }

// exprsSeed returns the initial Exprs slice for a new group: length zero,
// small capacity. Groups usually grow past one expression during
// exploration; a little up-front capacity avoids the append regrowth on the
// optimizer's hottest allocation site without over-reserving for leaves. A
// group outgrowing the seed spills to a regular append reallocation, which
// dies with the memo.
func (m *Memo) exprsSeed() []*MExpr {
	return m.arena.exprs.take(exprsSeedCap, exprsChunkLen)[:0]
}

// groupSlice carves an n-element child-group slice, before any recursive
// interning fills it.
func (m *Memo) groupSlice(n int) []*Group { return m.arena.gslices.take(n, gsliceChunkLen) }

// groupForNode interns the logical DAG bottom-up, preserving sharing: a
// *plan.Node consumed by several parents maps to one group.
func (m *Memo) groupForNode(n *plan.Node) *Group {
	if g, ok := m.byNode[n]; ok {
		return g
	}
	children := m.groupSlice(len(n.Children))
	for i, c := range n.Children {
		children[i] = m.groupForNode(c)
	}
	payload := m.shallow(n)
	known, h, ok := m.lookupExpr(payload, children)
	if ok {
		m.byNode[n] = known
		return known
	}
	g := m.newGroup()
	g.ID = GroupID(len(m.Groups))
	g.Schema = n.Schema
	e := m.newMExpr()
	*e = MExpr{Node: payload, Children: children, Group: g, RuleID: -1}
	g.Exprs = append(m.exprsSeed(), e)
	g.Props = m.deriveProps(e)
	m.Groups = append(m.Groups, g)
	m.insertExpr(e, h)
	m.byNode[n] = g
	m.totalExprs++
	return g
}

// shallow copies a node payload without children into the arena. The copy is
// only ever reachable through memo-scoped structures (MExpr.Node,
// pexpr.node): extraction copies payload slice headers out of it but never
// the struct, so it recycles with the arena.
func (m *Memo) shallow(n *plan.Node) *plan.Node {
	cp := m.arena.nodes.one(nodeChunkLen)
	*cp = *n
	cp.Children = nil
	return cp
}

// Full reports whether the memo's exploration budget is exhausted.
func (m *Memo) Full() bool { return m.totalExprs >= m.totalLimit }

// TotalExprs returns the number of expressions interned so far. It is
// maintained incrementally by groupForNode and intern, so reading it never
// walks the groups.
func (m *Memo) TotalExprs() int { return m.totalExprs }

// RNode describes a rule's output: a new operator payload over children that
// are either existing groups or further new sub-expressions.
type RNode struct {
	Node     *plan.Node // payload; Children unused
	Children []RChild
}

// RChild is one child of an RNode: exactly one of Group and Sub is set.
type RChild struct {
	Group *Group
	Sub   *RNode
}

// GroupChild wraps an existing group as a rule-output child.
func GroupChild(g *Group) RChild { return RChild{Group: g} }

// SubChild wraps a new sub-expression as a rule-output child.
func SubChild(r *RNode) RChild { return RChild{Sub: r} }

// Intern inserts a rule result into the memo. The root expression joins
// target (the group of the matched expression); sub-expressions are interned
// into the groups already holding them or fresh ones. from is the matched
// expression (for provenance); ruleID identifies the applying rule. It
// returns true if any new expression was added.
func (m *Memo) Intern(rn *RNode, target *Group, from *MExpr, ruleID int) bool {
	if m.Full() {
		return false
	}
	prov := from.Provenance
	if ruleID >= 0 {
		prov.Set(ruleID)
	}
	_, added := m.intern(rn, target, prov, ruleID)
	return added
}

func (m *Memo) intern(rn *RNode, target *Group, prov bitvec.Vector, ruleID int) (*Group, bool) {
	added := false
	children := m.groupSlice(len(rn.Children))
	for i, c := range rn.Children {
		if c.Group != nil {
			children[i] = c.Group
			continue
		}
		g, subAdded := m.intern(c.Sub, nil, prov, ruleID)
		children[i] = g
		added = added || subAdded
	}
	g, h, ok := m.lookupExpr(rn.Node, children)
	if ok {
		// Expression already known. If it is known in a different group
		// than the target, the two groups are semantically equal but we
		// do not merge groups (a standard simplification); the duplicate
		// is dropped.
		return g, added
	}
	g = target
	if g == nil {
		g = m.newGroup()
		g.ID = GroupID(len(m.Groups))
		g.Schema = rn.Node.Schema
		g.Exprs = m.exprsSeed()
		m.Groups = append(m.Groups, g)
	}
	if len(g.Exprs) >= m.exprLimit && target != nil {
		return g, added
	}
	e := m.newMExpr()
	*e = MExpr{Node: rn.Node, Children: children, Group: g, RuleID: ruleID, Provenance: prov}
	g.Exprs = append(g.Exprs, e)
	m.insertExpr(e, h)
	m.totalExprs++
	if target == nil {
		g.Props = m.deriveProps(e)
	}
	return g, true
}

// FNV-1a constants (hash/fnv, inlined so hashing runs over the scratch
// buffer without an allocation or interface call).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// exprHash serializes the identity key of an expression into the memo's
// reusable scratch buffer and returns its FNV-1a hash, which only picks the
// expression's bucket.
func (m *Memo) exprHash(n *plan.Node, children []*Group) uint64 {
	b := appendExprKey(m.scratch[:0], n, children)
	m.scratch = b
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h & m.hashMask
}

// appendExprKey appends the interning key of an expression: operator,
// payload (with column IDs and literal values), schema column IDs and child
// group IDs. It is the memo's only statement of expression identity — two
// expressions are the same exactly when their keys are equal — so the
// encoding is injective: every list carries its length, every string its
// byte count, and a nil expression its own marker (TestExprKeyInjective).
// A payload field the memo should tell apart is added here and nowhere else.
func appendExprKey(b []byte, n *plan.Node, children []*Group) []byte {
	b = binary.AppendUvarint(b, uint64(n.Op))
	switch n.Op {
	case plan.OpGet:
		b = appendKeyStr(b, n.Table)
		b = appendKeyExpr(b, n.Pred)
	case plan.OpSelect, plan.OpJoin:
		b = appendKeyExpr(b, n.Pred)
	case plan.OpProject:
		b = binary.AppendUvarint(b, uint64(len(n.Projs)))
		for _, p := range n.Projs {
			b = binary.AppendUvarint(b, uint64(p.Out.ID))
			b = appendKeyExpr(b, p.Expr)
		}
	case plan.OpGroupBy:
		b = binary.AppendUvarint(b, uint64(len(n.GroupKeys)))
		for _, k := range n.GroupKeys {
			b = binary.AppendUvarint(b, uint64(k.ID))
		}
		b = binary.AppendUvarint(b, uint64(len(n.Aggs)))
		for _, a := range n.Aggs {
			b = appendKeyStr(b, a.Fn)
			b = binary.AppendUvarint(b, uint64(a.Out.ID))
			b = appendKeyExpr(b, a.Arg)
		}
	case plan.OpProcess:
		b = appendKeyStr(b, n.Processor)
	case plan.OpReduce:
		b = appendKeyStr(b, n.Processor)
		b = binary.AppendUvarint(b, uint64(len(n.ReduceKeys)))
		for _, k := range n.ReduceKeys {
			b = binary.AppendUvarint(b, uint64(k.ID))
		}
	case plan.OpTop:
		b = binary.AppendUvarint(b, uint64(n.TopN))
		b = binary.AppendUvarint(b, uint64(len(n.SortKeys)))
		for _, k := range n.SortKeys {
			b = binary.AppendUvarint(b, uint64(k.Col.ID))
			b = appendKeyBool(b, k.Desc)
		}
	case plan.OpOutput:
		b = appendKeyStr(b, n.OutputPath)
	default:
		// OpUnionAll, OpMulti: structure alone (children below) is the key.
	}
	// Schema IDs distinguish otherwise identical payloads over different
	// column identities (e.g. two scans of the same stream bound twice).
	b = binary.AppendUvarint(b, uint64(len(n.Schema)))
	for _, c := range n.Schema {
		b = binary.AppendUvarint(b, uint64(c.ID))
	}
	b = binary.AppendUvarint(b, uint64(len(children)))
	for _, g := range children {
		b = binary.AppendUvarint(b, uint64(g.ID))
	}
	return b
}

func appendKeyStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendKeyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendKeyExpr(b []byte, e *plan.Expr) []byte {
	b = appendKeyBool(b, e != nil)
	if e == nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(e.Kind))
	switch e.Kind {
	case plan.ExprColumn:
		b = binary.AppendUvarint(b, uint64(e.Col.ID))
	case plan.ExprConst:
		b = appendKeyLiteral(b, e.Lit)
	case plan.ExprCmp, plan.ExprArith:
		b = binary.AppendUvarint(b, uint64(e.Op))
	case plan.ExprFunc:
		b = appendKeyStr(b, e.Fn)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Args)))
	for _, a := range e.Args {
		b = appendKeyExpr(b, a)
	}
	return b
}

// appendKeyLiteral keys a number by its exact bits, so +0 and -0 stay
// distinct, except that every NaN payload keys as the one canonical NaN.
func appendKeyLiteral(b []byte, l plan.Literal) []byte {
	b = appendKeyBool(b, l.IsString)
	if l.IsString {
		return appendKeyStr(b, l.S)
	}
	f := l.F
	if math.IsNaN(f) {
		f = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// deriveProps computes a group's estimated statistics from one expression,
// carved from the arena's memo side: a frozen memo's statistics are read by
// every later compile of the session. The child slices are reusable scratch
// (read-only to the estimator); every child group is fully interned before the
// call, so nothing re-enters the memo while they are live.
func (m *Memo) deriveProps(e *MExpr) cost.Props {
	childProps := m.propsBuf[:0]
	childSchemas := m.schemaBuf[:0]
	for _, c := range e.Children {
		childProps = append(childProps, c.Props)
		childSchemas = append(childSchemas, c.Schema)
	}
	m.propsBuf, m.schemaBuf = childProps, childSchemas
	return m.DerivePropsFrom(&m.arena.memoStats, e.Node, childProps, childSchemas, e.Group.Schema)
}

// DerivePropsFrom estimates one operator's output statistics from explicit
// child statistics, carving its column statistics from a — whose owner thereby
// decides how long the result lives. The physical search uses it to cost
// every candidate from its *own* expression tree rather than canonical group
// statistics — which is why the same job recompiled under different rule
// configurations can come out with different (and sometimes lower) estimated
// costs: "the costs across recompilation runs with different rules are not
// directly comparable" (§5.3).
func (m *Memo) DerivePropsFrom(a *cost.Arena, n *plan.Node, childProps []cost.Props, childSchemas [][]plan.Column, outSchema []plan.Column) cost.Props {
	switch n.Op {
	case plan.OpGet:
		return m.est.Scan(a, n.Table, n.Schema, n.Pred)
	case plan.OpSelect:
		return m.est.Filter(a, childProps[0], n.Pred)
	case plan.OpProject:
		return m.est.Project(a, childProps[0], n.Projs)
	case plan.OpJoin:
		return m.est.Join(a, childProps[0], childProps[1], n.Pred)
	case plan.OpGroupBy:
		return m.est.GroupBy(a, childProps[0], n.GroupKeys, n.Aggs)
	case plan.OpUnionAll:
		return m.est.UnionAll(a, childProps, childSchemas, outSchema)
	case plan.OpProcess:
		return m.est.Process(a, childProps[0], n.Processor)
	case plan.OpReduce:
		return m.est.Reduce(a, childProps[0], n.ReduceKeys, n.Processor)
	case plan.OpTop:
		return m.est.Top(a, childProps[0], n.TopN)
	case plan.OpOutput:
		return childProps[0]
	case plan.OpMulti:
		var p cost.Props
		for _, cp := range childProps {
			p.Rows += cp.Rows
			p.RowBytes = maxFloat(p.RowBytes, cp.RowBytes)
		}
		return p
	}
	return cost.Props{Rows: 1, RowBytes: 8}
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
