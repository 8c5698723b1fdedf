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
	// buckets is the structural interning index: expressions keyed by a
	// 64-bit FNV-1a hash of their structural key, with collisions resolved
	// by exact structural equality (exprEqual) along the intrusive
	// MExpr.bucketNext chain. Interning therefore never materializes a key
	// string; the serialized key lives only in scratch.
	buckets map[uint64]*MExpr
	// scratch is the reusable key-serialization buffer behind exprHash.
	// Once grown to the largest key it is never reallocated.
	scratch []byte
	// hashMask degrades hashes for tests: all-ones in production, 0 forces
	// every expression into one collision bucket so the structural-equality
	// fallback is exercised end to end.
	hashMask uint64
	// collisions counts interning probes that walked past a structurally
	// unequal expression sharing their hash bucket. A healthy 64-bit hash
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

// lookupExpr finds the group already holding a structurally identical
// expression. The returned hash is the expression's interning hash and must
// be passed unchanged to insertExpr when the caller interns a new expression.
func (m *Memo) lookupExpr(n *plan.Node, children []*Group) (*Group, uint64, bool) {
	h := m.exprHash(n, children)
	for e := m.buckets[h]; e != nil; e = e.bucketNext {
		if exprEqual(n, children, e.Node, e.Children) {
			return e.Group, h, true
		}
		m.collisions++
	}
	return nil, h, false
}

// Collisions returns the number of interning hash collisions this memo
// resolved by structural equality.
func (m *Memo) Collisions() uint64 { return m.collisions }

// insertExpr records a newly interned expression in the structural index
// under the hash returned by the matching lookupExpr call. The expression is
// prepended to its bucket chain; chain order is irrelevant because at most
// one chained expression can be structurally equal to any probe.
func (m *Memo) insertExpr(e *MExpr, hash uint64) {
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
// into existing structurally identical groups or fresh ones. from is the
// matched expression (for provenance); ruleID identifies the applying rule.
// It returns true if any new expression was added.
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

// exprHash serializes the structural key of an expression into the memo's
// reusable scratch buffer and returns its FNV-1a hash. The serialized fields
// are exactly those exprEqual compares: operator, payload, schema column IDs
// and child group IDs.
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

// appendExprKey appends the structural interning key of an expression:
// operator, payload (with column IDs and literal values), schema column IDs
// and child group IDs. The encoding only needs to be deterministic — equal
// expressions serialize identically; collisions between unequal expressions
// are resolved by exprEqual.
func appendExprKey(b []byte, n *plan.Node, children []*Group) []byte {
	b = binary.AppendUvarint(b, uint64(n.Op))
	switch n.Op {
	case plan.OpGet:
		b = appendKeyStr(b, n.Table)
		b = appendKeyExpr(b, n.Pred)
	case plan.OpSelect, plan.OpJoin:
		b = appendKeyExpr(b, n.Pred)
	case plan.OpProject:
		for _, p := range n.Projs {
			b = binary.AppendUvarint(b, uint64(p.Out.ID))
			b = appendKeyExpr(b, p.Expr)
		}
	case plan.OpGroupBy:
		for _, k := range n.GroupKeys {
			b = binary.AppendUvarint(b, uint64(k.ID))
		}
		b = append(b, 0xfe) // keys/aggs separator
		for _, a := range n.Aggs {
			b = appendKeyStr(b, a.Fn)
			b = binary.AppendUvarint(b, uint64(a.Out.ID))
			b = appendKeyExpr(b, a.Arg)
		}
	case plan.OpProcess:
		b = appendKeyStr(b, n.Processor)
	case plan.OpReduce:
		b = appendKeyStr(b, n.Processor)
		for _, k := range n.ReduceKeys {
			b = binary.AppendUvarint(b, uint64(k.ID))
		}
	case plan.OpTop:
		b = binary.AppendUvarint(b, uint64(n.TopN))
		for _, k := range n.SortKeys {
			b = binary.AppendUvarint(b, uint64(k.Col.ID))
			if k.Desc {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	case plan.OpOutput:
		b = appendKeyStr(b, n.OutputPath)
	default:
		// OpUnionAll, OpMulti: structure alone (children below) is the key.
	}
	// Schema IDs distinguish otherwise identical payloads over different
	// column identities (e.g. two scans of the same stream bound twice).
	b = append(b, 0xfd)
	for _, c := range n.Schema {
		b = binary.AppendUvarint(b, uint64(c.ID))
	}
	b = append(b, 0xfd)
	for _, g := range children {
		b = binary.AppendUvarint(b, uint64(g.ID))
	}
	return b
}

func appendKeyStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendKeyExpr(b []byte, e *plan.Expr) []byte {
	if e == nil {
		return append(b, 0xff)
	}
	b = append(b, '(')
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
	for _, a := range e.Args {
		b = appendKeyExpr(b, a)
	}
	return append(b, ')')
}

func appendKeyLiteral(b []byte, l plan.Literal) []byte {
	if l.IsString {
		b = append(b, 's')
		return appendKeyStr(b, l.S)
	}
	b = append(b, 'f')
	if math.IsNaN(l.F) {
		// Canonicalize NaN payloads so literals that compare equal under
		// literalEqual always hash identically.
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(math.NaN()))
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(l.F))
}

// exprEqual reports structural equality of an interning probe against a
// stored expression. It compares exactly the fields appendExprKey hashes, so
// the (hash, equality) pair behaves like the former string key: equal
// expressions always collide, and colliding unequal expressions are told
// apart here.
func exprEqual(n1 *plan.Node, ch1 []*Group, n2 *plan.Node, ch2 []*Group) bool {
	if n1.Op != n2.Op || len(ch1) != len(ch2) || len(n1.Schema) != len(n2.Schema) {
		return false
	}
	for i := range ch1 {
		if ch1[i] != ch2[i] {
			return false
		}
	}
	for i := range n1.Schema {
		if n1.Schema[i].ID != n2.Schema[i].ID {
			return false
		}
	}
	switch n1.Op {
	case plan.OpGet:
		return n1.Table == n2.Table && keyExprEqual(n1.Pred, n2.Pred)
	case plan.OpSelect, plan.OpJoin:
		return keyExprEqual(n1.Pred, n2.Pred)
	case plan.OpProject:
		if len(n1.Projs) != len(n2.Projs) {
			return false
		}
		for i := range n1.Projs {
			if n1.Projs[i].Out.ID != n2.Projs[i].Out.ID || !keyExprEqual(n1.Projs[i].Expr, n2.Projs[i].Expr) {
				return false
			}
		}
		return true
	case plan.OpGroupBy:
		if len(n1.GroupKeys) != len(n2.GroupKeys) || len(n1.Aggs) != len(n2.Aggs) {
			return false
		}
		for i := range n1.GroupKeys {
			if n1.GroupKeys[i].ID != n2.GroupKeys[i].ID {
				return false
			}
		}
		for i := range n1.Aggs {
			a1, a2 := &n1.Aggs[i], &n2.Aggs[i]
			if a1.Fn != a2.Fn || a1.Out.ID != a2.Out.ID || !keyExprEqual(a1.Arg, a2.Arg) {
				return false
			}
		}
		return true
	case plan.OpProcess:
		return n1.Processor == n2.Processor
	case plan.OpReduce:
		if n1.Processor != n2.Processor || len(n1.ReduceKeys) != len(n2.ReduceKeys) {
			return false
		}
		for i := range n1.ReduceKeys {
			if n1.ReduceKeys[i].ID != n2.ReduceKeys[i].ID {
				return false
			}
		}
		return true
	case plan.OpTop:
		if n1.TopN != n2.TopN || len(n1.SortKeys) != len(n2.SortKeys) {
			return false
		}
		for i := range n1.SortKeys {
			if n1.SortKeys[i].Col.ID != n2.SortKeys[i].Col.ID || n1.SortKeys[i].Desc != n2.SortKeys[i].Desc {
				return false
			}
		}
		return true
	case plan.OpOutput:
		return n1.OutputPath == n2.OutputPath
	default:
		// OpUnionAll, OpMulti: structure alone (children above) is the key.
		return true
	}
}

func keyExprEqual(a, b *plan.Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || len(a.Args) != len(b.Args) {
		return false
	}
	switch a.Kind {
	case plan.ExprColumn:
		if a.Col.ID != b.Col.ID {
			return false
		}
	case plan.ExprConst:
		if !literalEqual(a.Lit, b.Lit) {
			return false
		}
	case plan.ExprCmp, plan.ExprArith:
		if a.Op != b.Op {
			return false
		}
	case plan.ExprFunc:
		if a.Fn != b.Fn {
			return false
		}
	}
	for i := range a.Args {
		if !keyExprEqual(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// literalEqual matches the equality the former string keys induced: exact
// bit equality for numbers (so +0 and -0 stay distinct, as their decimal
// renderings were), with all NaNs equal (they all rendered "NaN").
func literalEqual(a, b plan.Literal) bool {
	if a.IsString != b.IsString {
		return false
	}
	if a.IsString {
		return a.S == b.S
	}
	if math.IsNaN(a.F) || math.IsNaN(b.F) {
		return math.IsNaN(a.F) && math.IsNaN(b.F)
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
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
