package cascades

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

// The session's structural promises need the package's internals and so
// cannot use the real catalog (internal/rules imports this package); a toy
// rule set with the same moving parts stands in: two non-required
// transformations (one of which allocates a column ID), several
// implementation alternatives per operator, enforcers. The real catalog's
// equivalence battery is TestSessionMatchesOneShot in session_test.go.

type toyTransform struct {
	info  RuleInfo
	op    plan.Op
	apply func(e *MExpr, m *Memo) []*RNode
}

func (r toyTransform) Info() RuleInfo                   { return r.info }
func (r toyTransform) MatchOp() plan.Op                 { return r.op }
func (r toyTransform) Apply(e *MExpr, m *Memo) []*RNode { return r.apply(e, m) }

type toyImpl struct {
	info RuleInfo
	op   plan.Op
	impl func(e *MExpr, m *Memo, p *PhysProto)
}

func (r toyImpl) Info() RuleInfo   { return r.info }
func (r toyImpl) MatchOp() plan.Op { return r.op }

// Implement carves the rule's one prototype and lets impl fill it. Its
// payload is a carved copy of e's with carved schema, key, aggregate,
// projection and sort-key slices — what a real rule may return — so the
// retirement tests see those slices reach extracted plans.
func (r toyImpl) Implement(e *MExpr, m *Memo) []*PhysProto {
	n := m.Node()
	*n = *e.Node
	n.Schema = m.Concat(e.Node.Schema, nil)
	n.GroupKeys = m.Concat(e.Node.GroupKeys, nil)
	n.Aggs = m.Aggs(len(e.Node.Aggs))
	copy(n.Aggs, e.Node.Aggs)
	n.Projs = m.Projections(len(e.Node.Projs))
	copy(n.Projs, e.Node.Projs)
	n.SortKeys = m.SortKeys(len(e.Node.SortKeys))
	copy(n.SortKeys, e.Node.SortKeys)
	ps := m.Protos(1)
	ps[0].Node, ps[0].BuildIdx = n, -1
	r.impl(e, m, ps[0])
	return ps
}

const (
	toyMergeSelect = 10 // on-by-default transform
	toyWidenSelect = 11 // off-by-default transform, allocates a column ID
	toyFilter      = 20
	toyFilterAlt   = 21
	toyHashAgg     = 22
	toyStreamAgg   = 23
	toyTwoPhaseAgg = 24
)

func toyOptimizer(t *testing.T) *Optimizer {
	t.Helper()
	anyDist := plan.Distribution{Kind: plan.DistAny}
	child := func(op plan.PhysOp, req plan.Distribution) func(e *MExpr, m *Memo, p *PhysProto) {
		return func(e *MExpr, m *Memo, p *PhysProto) {
			p.Op, p.OutDist = op, anyDist
			p.ChildReq = m.Dists(1)
			p.ChildReq[0] = req
		}
	}
	agg := func(op plan.PhysOp, sorted bool, pre plan.PhysOp) func(e *MExpr, m *Memo, p *PhysProto) {
		return func(e *MExpr, m *Memo, p *PhysProto) {
			req := m.HashDist(e.Node.GroupKeys)
			p.Op, p.OutDist, p.NeedsSort, p.LocalPre = op, req, sorted, pre
			p.ChildReq = m.Dists(1)
			p.ChildReq[0] = req
		}
	}
	// Both transforms carve their payloads, and WidenSelect a copy of the
	// schema and a predicate mixing carved and heap nodes too, so the
	// retirement tests see rule-owned arena memory reach extraction.
	transforms := []TransformRule{
		toyTransform{RuleInfo{toyMergeSelect, "MergeSelect", OnByDefault}, plan.OpSelect, func(e *MExpr, m *Memo) []*RNode {
			get := e.Children[0].Exprs[0].Node
			if get.Op != plan.OpGet || get.Pred != nil {
				return nil
			}
			n := m.Node()
			n.Op, n.Table, n.Pred, n.Schema = plan.OpGet, get.Table, e.Node.Pred, get.Schema
			return append(m.Results(1), m.RNode(n))
		}},
		toyTransform{RuleInfo{toyWidenSelect, "WidenSelect", OffByDefault}, plan.OpSelect, func(e *MExpr, m *Memo) []*RNode {
			if e.Node.Pred.Kind != plan.ExprCmp {
				return nil
			}
			m.NewColID()
			wide := plan.And(m, e.Node.Pred, plan.Cmp(heap, plan.OpGT, plan.ColExpr(m, e.Group.Schema[0]), plan.NumExpr(heap, -1)))
			n := m.Node()
			n.Op, n.Pred, n.Schema = plan.OpSelect, wide, m.Concat(e.Node.Schema, nil)
			return append(m.Results(1), m.RNode(n, GroupChild(e.Children[0])))
		}},
	}
	implements := []ImplementRule{
		toyImpl{RuleInfo{1, "Scan", Required}, plan.OpGet, func(e *MExpr, m *Memo, p *PhysProto) {
			p.Op = plan.PhysExtract
			if e.Node.Pred != nil {
				p.Op = plan.PhysRangeScan
			}
			p.OutDist = plan.Distribution{Kind: plan.DistRandom}
		}},
		toyImpl{RuleInfo{2, "Output", Required}, plan.OpOutput, child(plan.PhysOutputImpl, anyDist)},
		toyImpl{RuleInfo{5, "Compute", Required}, plan.OpProject, child(plan.PhysCompute, anyDist)},
		toyImpl{RuleInfo{7, "Multi", Required}, plan.OpMulti, func(e *MExpr, m *Memo, p *PhysProto) {
			p.Op, p.OutDist = plan.PhysMultiImpl, plan.Distribution{Kind: plan.DistSingleton}
			p.ChildReq = m.Dists(len(e.Children))
			for i := range p.ChildReq {
				p.ChildReq[i] = anyDist
			}
		}},
		toyImpl{RuleInfo{6, "Top", Required}, plan.OpTop, func(e *MExpr, m *Memo, p *PhysProto) {
			single := plan.Distribution{Kind: plan.DistSingleton}
			p.Op, p.OutDist = plan.PhysGlobalTop, single
			p.ChildReq = m.Dists(1)
			p.ChildReq[0] = single
		}},
		toyImpl{RuleInfo{toyFilter, "Filter", Implementation}, plan.OpSelect, child(plan.PhysFilter, anyDist)},
		toyImpl{RuleInfo{toyFilterAlt, "FilterAlt", Implementation}, plan.OpSelect, child(plan.PhysFilter, plan.Distribution{Kind: plan.DistRandom})},
		toyImpl{RuleInfo{toyHashAgg, "HashAgg", Implementation}, plan.OpGroupBy, agg(plan.PhysHashAgg, false, 0)},
		toyImpl{RuleInfo{toyStreamAgg, "StreamAgg", Implementation}, plan.OpGroupBy, agg(plan.PhysStreamAgg, true, 0)},
		toyImpl{RuleInfo{toyTwoPhaseAgg, "TwoPhaseAgg", Implementation}, plan.OpGroupBy, agg(plan.PhysFinalHashAgg, false, plan.PhysPartialHashAgg)},
	}
	rs, err := NewRuleSet(transforms, implements, []RuleInfo{{3, "EnforceExchange", Required}, {4, "EnforceSort", Required}})
	if err != nil {
		t.Fatal(err)
	}
	return &Optimizer{Rules: rs, Est: cost.NewEstimated(memoCatalog()), EnforceExchangeID: 3, EnforceSortID: 4}
}

// toyPlans are small jobs over the toy catalog: a filtered aggregation over
// the wide stream, a filtered aggregation, two outputs sharing one filtered
// scan, the top rows of a projection of a filtered scan, and aggregations on
// two different keys over one filtered scan, whose candidates are enforced
// to both hash layouts in one compile. The wide job
// comes first: on a fresh arena its first memo
// build and its first physical phase each carve several times what a
// statistics arena starts with, so both arenas replace their buffers under
// statistics that are still being read.
func toyPlans() []*plan.Node {
	a, b, n, x := tcol(1, "a"), tcol(2, "b"), plan.Column{ID: 3, Name: "n"}, plan.Column{ID: 4, Name: "x"}
	w := wideSchema()
	wideAgg := plan.NewGroupBy(heap,
		plan.NewSelect(heap, plan.NewGet(heap, "w", w), plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, w[7]), plan.NumExpr(heap, 5))),
		[]plan.Column{w[0], w[3]}, []plan.Agg{{Fn: "COUNT", Out: n}})
	filtered := func() *plan.Node {
		return plan.NewSelect(heap, plan.NewGet(heap, "t", []plan.Column{a, b}), plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, b), plan.NumExpr(heap, 5)))
	}
	count := []plan.Agg{{Fn: "COUNT", Out: n}}
	shared, twice := filtered(), filtered()
	return []*plan.Node{
		plan.NewOutput(heap, wideAgg, "wide"),
		plan.NewOutput(heap, plan.NewGroupBy(heap, filtered(), []plan.Column{a}, count), "agg"),
		plan.NewMulti(heap, plan.NewOutput(heap, shared, "raw"), plan.NewOutput(heap, plan.NewGroupBy(heap, shared, []plan.Column{b}, count), "byb")),
		plan.NewOutput(heap, plan.NewTop(heap, plan.NewProject(heap, filtered(), []plan.Projection{{Expr: plan.ColExpr(heap, a), Out: x}}),
			5, []plan.SortKey{{Col: x, Desc: true}}), "top"),
		plan.NewMulti(heap, plan.NewOutput(heap, plan.NewGroupBy(heap, twice, []plan.Column{a}, count), "bya"),
			plan.NewOutput(heap, plan.NewGroupBy(heap, twice, []plan.Column{b}, count), "byb")),
	}
}

// toyConfigs enumerates every configuration of the toy rule set's seven
// non-required rules.
func toyConfigs() []bitvec.Vector {
	ids := []int{toyMergeSelect, toyWidenSelect, toyFilter, toyFilterAlt, toyHashAgg, toyStreamAgg, toyTwoPhaseAgg}
	var out []bitvec.Vector
	for bits := 0; bits < 1<<len(ids); bits++ {
		cfg := bitvec.AllSet(bitvec.Width)
		for i, id := range ids {
			if bits&(1<<i) == 0 {
				cfg.Clear(id)
			}
		}
		out = append(out, cfg)
	}
	return out
}

// sessionOn opens a session on the fixed arena sc instead of a pooled one.
// End it with sc.retire(), which recycles the arena exactly as Close does but
// keeps it out of the pool, so a test can run session after session on one
// arena and inspect it in between.
func sessionOn(o *Optimizer, sc *searchScratch, root *plan.Node) *Session {
	return &Session{o: o, root: root, sc: sc}
}

// dump renders a plan with every field String leaves out — schemas,
// distributions, payload lists and expressions — so a plan reading retired
// arena memory anywhere renders differently.
func dump(p *plan.PhysNode) string {
	var b strings.Builder
	seen := map[*plan.PhysNode]bool{}
	var rec func(n *plan.PhysNode)
	rec = func(n *plan.PhysNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		fmt.Fprintf(&b, "%v %v %v %v %v %v %v %v %v\n", n.Op, n.Schema, n.Dist, n.Pred, n.Projs, n.GroupKeys, n.Aggs, n.ReduceKeys, n.SortKeys)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p)
	return p.String() + b.String()
}

func sameResult(got *Result, gerr error, want *Result, werr error) error {
	if (gerr == nil) != (werr == nil) || errors.Is(gerr, ErrNoPlan) != errors.Is(werr, ErrNoPlan) {
		return fmt.Errorf("err %v, want %v", gerr, werr)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || !got.Signature.Equal(want.Signature) ||
		!got.Footprint.Equal(want.Footprint) || got.Groups != want.Groups || got.Exprs != want.Exprs {
		return fmt.Errorf("result %+v, want %+v", got, want)
	}
	if got.Plan != nil && got.Plan.String() != want.Plan.String() {
		return fmt.Errorf("plan\n%swant\n%s", got.Plan, want.Plan)
	}
	return nil
}

// census flattens everything a physical phase could corrupt in a memo: group
// and expression identities and counts, child pointers, provenance,
// statistics down to every column's ID and IEEE bits, the column counter, the
// explore footprint.
func census(m *Memo) []uint64 {
	addr := func(p unsafe.Pointer) uint64 { return uint64(uintptr(p)) }
	bits := func(out []uint64, v bitvec.Vector) []uint64 {
		k := v.Key()
		return append(out, k[:]...)
	}
	out := []uint64{uint64(m.nextCol), uint64(m.totalExprs), uint64(len(m.Groups)), addr(unsafe.Pointer(m.Root))}
	out = bits(out, m.footprint)
	for _, g := range m.Groups {
		out = append(out, addr(unsafe.Pointer(g)), uint64(g.ID), uint64(len(g.Exprs)), uint64(len(g.Schema)),
			math.Float64bits(g.Props.Rows), math.Float64bits(g.Props.RowBytes), uint64(len(g.Props.NDV)))
		for _, c := range g.Props.NDV {
			out = append(out, uint64(c.ID), math.Float64bits(c.V))
		}
		for _, e := range g.Exprs {
			out = append(out, addr(unsafe.Pointer(e)), addr(unsafe.Pointer(e.Node)), addr(unsafe.Pointer(e.Group)),
				uint64(e.Node.Op), uint64(int64(e.RuleID)), uint64(len(e.Children)))
			out = bits(bits(out, e.Provenance), e.fired)
			for _, c := range e.Children {
				out = append(out, addr(unsafe.Pointer(c)))
			}
		}
	}
	return out
}

// TestFrozenMeansFrozen: through one session per plan, every configuration
// of the toy rule set in forward, reversed and shuffled order — plan-less and
// with-plan compiles interleaved — equals a one-shot compile, no physical
// phase (384 per plan) nor later memo build changes the census of any memo the
// session holds — including the ones whose statistics were carved while the
// arenas were still growing — every explore footprint lies inside the
// transform mask, and the session explores exactly one memo per transform-bit
// class.
func TestFrozenMeansFrozen(t *testing.T) {
	o := toyOptimizer(t)
	mask := o.Rules.transformMask
	if !mask.Equal(bitvec.New(toyMergeSelect, toyWidenSelect)) {
		t.Fatalf("transform mask %v", mask)
	}
	cfgs := toyConfigs()
	orders := [][]int{make([]int, len(cfgs)), make([]int, len(cfgs)), make([]int, len(cfgs))}
	for i := range cfgs {
		orders[0][i], orders[1][i] = i, len(cfgs)-1-i
		orders[2][i] = (i*37 + 11) % len(cfgs) // 37 is coprime to 128: a fixed shuffle
	}
	sc := newSearchScratch()
	noPlans := 0
	for pi, root := range toyPlans() {
		for oi, order := range orders {
			sess := sessionOn(o, sc, root)
			frozen := map[*Memo][]uint64{}
			for step, i := range order {
				label := fmt.Sprintf("plan %d order %d step %d", pi, oi, step)
				got, gerr := sess.Optimize(cfgs[i], step%2 == 0)
				want, werr := o.Optimize(root, cfgs[i])
				if err := sameResult(got, gerr, want, werr); err != nil {
					t.Fatalf("%s: session diverges from one-shot: %v", label, err)
				}
				if gerr != nil {
					noPlans++
				}
				for m, was := range frozen {
					if !slices.Equal(was, census(m)) {
						t.Fatalf("%s: a physical phase changed a frozen memo", label)
					}
				}
				m := sess.sc.memos[cfgs[i].And(mask).Key()]
				if m == nil || !mask.Contains(m.footprint) || !got.Footprint.Contains(m.footprint) {
					t.Fatalf("%s: memo missing or its explore footprint outside the transform mask", label)
				}
				if _, held := frozen[m]; !held {
					frozen[m] = census(m)
				}
			}
			if len(frozen) != 4 || len(sess.sc.memos) != 4 {
				t.Fatalf("plan %d order %d: %d memos for 4 transform-bit classes", pi, oi, len(sess.sc.memos))
			}
			sc.retire()
		}
	}
	if noPlans == 0 {
		t.Fatal("no configuration failed to compile; the no-plan path went untested")
	}
}

// TestGroupStateReuse: after a compile under the default configuration, a
// compile of the same session with one implementation rule flipped
// re-enumerates exactly the groups that read the rule's bit and every group
// above them, and reuses every other group's filed state — the scan under
// the filter when the filter rule (read by the lowest group that reads any
// bit) flips, the filter and the scan when the aggregation rule flips —
// while returning what a fresh Optimize does.
func TestGroupStateReuse(t *testing.T) {
	o := toyOptimizer(t)
	root := toyPlans()[1] // an aggregation over a filtered scan
	base := o.Rules.DefaultConfig()
	for _, flip := range []int{toyFilter, toyHashAgg} {
		sc := newSearchScratch()
		sess := sessionOn(o, sc, root)
		cfg := base
		cfg.Clear(flip)
		for _, c := range []bitvec.Vector{base, cfg} {
			got, gerr := sess.Optimize(c, true)
			want, werr := o.Optimize(root, c)
			if err := sameResult(got, gerr, want, werr); err != nil || gerr != nil {
				t.Fatalf("rule %d: session diverges from one-shot (%v) or has no plan (%v)", flip, err, gerr)
			}
		}
		m := sc.memos[base.And(o.Rules.transformMask).Key()]
		// The groups that must re-enumerate: those with an expression the
		// flipped rule implements, then, to a fixpoint, every group with an
		// expression over one of them.
		stale := map[*Group]bool{}
		for _, g := range m.Groups {
			for _, e := range g.Exprs {
				for _, r := range o.Rules.implementsFor(e.Node.Op) {
					stale[g] = stale[g] || r.Info().ID == flip
				}
			}
		}
		for grew := true; grew; {
			grew = false
			for _, g := range m.Groups {
				for _, e := range g.Exprs {
					for _, c := range e.Children {
						if stale[c] && !stale[g] {
							stale[g], grew = true, true
						}
					}
				}
			}
		}
		reused := 0
		for _, g := range m.Groups {
			n := 0
			for gs := sc.filed[m][g.ID]; gs != nil; gs = gs.next {
				n++
			}
			want := 1
			if stale[g] {
				want = 2
			} else {
				reused++
			}
			if n != want {
				t.Errorf("rule %d: group %d (%v) has %d filed states, want %d", flip, g.ID, g.Exprs[0].Node.Op, n, want)
			}
		}
		if reused == 0 || !stale[m.Root] {
			t.Fatalf("rule %d: %d groups reused, root stale %v; the test is vacuous", flip, reused, stale[m.Root])
		}
		sc.retire()
	}
}

// TestEnforcerPerRequirement: aggregations on two different keys over one
// filtered scan ask the scan's group for both hash layouts in every compile,
// and under every configuration, one-shot and through one session, each
// aggregation's input is partitioned on its own group keys — an enforcer is
// shared only for the requirement it was built for. The session oracles
// cannot see an enforcer reused for the wrong keys: a one-shot compile would
// reuse it the same way.
func TestEnforcerPerRequirement(t *testing.T) {
	o := toyOptimizer(t)
	root := toyPlans()[4]
	sess := sessionOn(o, newSearchScratch(), root)
	checked := 0
	for i, cfg := range toyConfigs() {
		for _, withSession := range []bool{false, true} {
			var res *Result
			var err error
			if withSession {
				res, err = sess.Optimize(cfg, true)
			} else {
				res, err = o.Optimize(root, cfg)
			}
			if err != nil {
				continue
			}
			res.Plan.Walk(func(n *plan.PhysNode) {
				switch n.Op {
				case plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysFinalHashAgg:
				default:
					return
				}
				want := make([]plan.ColumnID, len(n.GroupKeys))
				for k, c := range n.GroupKeys {
					want[k] = c.ID
				}
				if d := n.Children[0].Dist; d.Kind != plan.DistHash || !slices.Equal(d.Keys, want) {
					t.Fatalf("cfg %d (session %v): %v on %v reads a %v input\n%s", i, withSession, n.Op, want, d, res.Plan)
				}
				checked++
			})
		}
	}
	if checked == 0 {
		t.Fatal("no configuration compiled an aggregation; the test is vacuous")
	}
}

func fill[T any](s *slab[T], v T) {
	for _, c := range s.chunks {
		for i := range c {
			c[i] = v
		}
	}
}

// poison overwrites every chunk of an idle arena with garbage no compile
// produces, so anything still reading retired memo or search memory shows;
// with clean set it restores the zeroed state the slabs hand out.
func poison(sc *searchScratch, clean bool) {
	junk := &plan.Node{Op: plan.OpMulti, Table: "poison", OutputPath: "poison"}
	jg := &Group{ID: -1}
	je := &MExpr{Node: junk, Group: jg, RuleID: 255, key: []byte("poison")}
	jp := &pexpr{op: plan.PhysMultiImpl, node: junk, lexpr: je, ruleID: 255, dop: -1, total: math.NaN()}
	jp.next, jp.enforced = jp, jp
	ja := &implAlt{protos: []*PhysProto{{Op: plan.PhysMultiImpl, Node: junk}}, built: []*pexpr{jp}, done: true}
	jw := &groupWinner{w: jp}
	js := &groupSearch{foot: bitvec.AllSet(bitvec.Width), winners: jw, candidates: []*pexpr{jp}, enumerated: true}
	jcol := plan.Column{ID: 1 << 30, Name: "poison"}
	jagg := plan.Agg{Fn: "POISON", Arg: plan.ColExpr(heap, jcol), Out: jcol}
	jproj := plan.Projection{Expr: plan.ColExpr(heap, jcol), Out: jcol}
	jsort := plan.SortKey{Col: jcol, Desc: true}
	jdist := plan.Distribution{Kind: plan.DistBroadcast, Keys: []plan.ColumnID{jcol.ID}, DOP: -1}
	jproto := &PhysProto{Op: plan.PhysMultiImpl, Node: junk, ChildReq: []plan.Distribution{jdist}, OutDist: jdist}
	jrn := &RNode{Node: junk, Children: []RChild{{Group: jg}}}
	jrc := RChild{Group: jg, Sub: jrn}
	jid := jcol.ID
	jexpr := plan.Expr{Kind: plan.ExprFunc, Fn: "POISON", Col: jcol, Args: []*plan.Expr{jagg.Arg}}
	if clean {
		junk, jg, je, jp, ja, jw, js = &plan.Node{}, &Group{}, &MExpr{}, &pexpr{}, &implAlt{}, &groupWinner{}, &groupSearch{}
		jcol, jagg, jproj, jsort, jdist, jproto, jrn, jrc, jid = plan.Column{}, plan.Agg{}, plan.Projection{}, plan.SortKey{}, plan.Distribution{}, &PhysProto{}, &RNode{}, RChild{}, 0
		jexpr = plan.Expr{}
	}
	fill(&sc.pexprs, *jp)
	fill(&sc.enforcers, *junk)
	fill(&sc.mexprs, *je)
	fill(&sc.groups, *jg)
	fill(&sc.nodes, *junk)
	fill(&sc.impls, *ja)
	fill(&sc.winners, *jw)
	fill(&sc.states, *js)
	fill(&sc.cols, jcol)
	fill(&sc.aggs, jagg)
	fill(&sc.projs, jproj)
	fill(&sc.sortKeys, jsort)
	fill(&sc.ids, jid)
	fill(&sc.dists, jdist)
	fill(&sc.protos, *jproto)
	fill(&sc.rnodes, *jrn)
	fill(&sc.rchildren, jrc)
	fill(&sc.exprNodes, jexpr)
	jk := byte(0xa5)
	if clean {
		jg, je, jp, js, jk, jproto, jrn = nil, nil, nil, nil, 0, nil, nil
	}
	fill(&sc.keys, jk)
	fill(&sc.children, jp)
	fill(&sc.gslices, jg)
	fill(&sc.exprs, je)
	fill(&sc.heads, js)
	fill(&sc.protoLists, jproto)
	fill(&sc.results, jrn)
	fill(&sc.preds, jagg.Arg)
	fill(&sc.exprArgs, jagg.Arg)
}

// TestCloseRetiresEverything: nothing a closed session produced or held
// reaches into its arena. Results returned before Close validate and render
// the same while every chunk of the arena is poisoned, the arena's maps are
// empty, and the next plan's session on the same arena — whose
// configurations map to the very same memo keys — equals one-shot compiles.
func TestCloseRetiresEverything(t *testing.T) {
	o := toyOptimizer(t)
	cfgs := toyConfigs()
	sc := newSearchScratch()
	for round := 0; round < 2; round++ {
		for pi, root := range toyPlans() {
			sess := sessionOn(o, sc, root)
			var kept []*Result
			var text []string
			for i, cfg := range cfgs {
				got, gerr := sess.Optimize(cfg, true)
				want, werr := o.Optimize(root, cfg)
				if err := sameResult(got, gerr, want, werr); err != nil {
					t.Fatalf("round %d plan %d cfg %d: session on a reused arena diverges from one-shot: %v", round, pi, i, err)
				}
				if gerr == nil {
					kept, text = append(kept, got), append(text, dump(got.Plan))
				}
			}
			sc.retire()
			if len(sc.memos)+len(sc.filed)+len(sc.buckets)+len(sc.byNode) != 0 {
				t.Fatalf("plan %d: a closed session left map entries behind", pi)
			}
			poison(sc, false)
			for i, res := range kept {
				if err := Validate(res.Plan, 0); err != nil {
					t.Fatalf("plan %d: result %d broke once its arena was retired: %v", pi, i, err)
				}
				if dump(res.Plan) != text[i] {
					t.Fatalf("plan %d: result %d renders differently once its arena was retired", pi, i)
				}
			}
			poison(sc, true)
		}
	}
}

// TestPexprSize: a session carves a pexpr for every candidate and enforcer it
// costs and keeps it until Close, so the struct must not grow. The reuse
// links took the bytes of the rows and rowBytes fields, which only ever
// copied props.Rows and props.RowBytes.
func TestPexprSize(t *testing.T) {
	if n := unsafe.Sizeof(pexpr{}); n > 224 {
		t.Fatalf("pexpr is %d bytes, budget 224", n)
	}
}
