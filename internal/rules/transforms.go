package rules

import (
	"slices"

	"steerq/internal/cascades"
	"steerq/internal/plan"
)

// one carves the result list of a rule with a single rewrite.
func one(m *cascades.Memo, rn *cascades.RNode) []*cascades.RNode {
	return append(m.Results(1), rn)
}

// union carves a UnionAll rewrite over kids with the given output schema.
func union(m *cascades.Memo, schema []plan.Column, kids []cascades.RChild) *cascades.RNode {
	rn := m.RNode(unionPayload(m, schema))
	rn.Children = kids
	return rn
}

// groupByNode carves a GroupBy payload.
func groupByNode(m *cascades.Memo, keys []plan.Column, aggs []plan.Agg, schema []plan.Column) *plan.Node {
	n := m.Node()
	n.Op, n.GroupKeys, n.Aggs, n.Schema = plan.OpGroupBy, keys, aggs, schema
	return n
}

// topNode carves a Top payload.
func topNode(m *cascades.Memo, topN int, keys []plan.SortKey, schema []plan.Column) *plan.Node {
	n := m.Node()
	n.Op, n.TopN, n.SortKeys, n.Schema = plan.OpTop, topN, keys, schema
	return n
}

// selectPredNormalized reorders the conjuncts of a filter by estimated
// selectivity, most selective first. Under the estimator's exponential
// backoff this produces the *lowest* combined estimate for the same
// predicate — a pure node-property change of exactly the kind §5.3 describes.
type selectPredNormalized struct{ info }

func (r selectPredNormalized) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	if e.Node.Pred == nil || e.Node.Pred.Kind != plan.ExprAnd {
		return nil
	}
	conj := append(m.Preds(len(e.Node.Pred.Args)), e.Node.Pred.Args...)
	if len(conj) < 2 {
		return nil
	}
	est := m.Estimator()
	props := e.Children[0].Props
	slices.SortStableFunc(conj, func(a, b *plan.Expr) int {
		sa, sb := est.Selectivity(a, props), est.Selectivity(b, props)
		switch {
		case sa < sb:
			return -1
		case sb < sa:
			return 1
		}
		return 0
	})
	return one(m, m.RNode(selNode(m, plan.And(m, conj...), e.Group.Schema), cascades.GroupChild(e.Children[0])))
}

// selectIntoGet merges a filter into the scan beneath it, enabling the
// RangeScan implementation.
type selectIntoGet struct{ info }

func (r selectIntoGet) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, g := range in.Exprs {
		if g.Node.Op != plan.OpGet {
			continue
		}
		n := copyNode(m, g.Node, g.Node.Schema)
		n.Pred = plan.And(m, g.Node.Pred, e.Node.Pred)
		out = append(out, m.RNode(n))
	}
	return out
}

// joinCommute swaps join inputs, flipping build/probe economics of the
// physical joins downstream.
type joinCommute struct{ info }

func (r joinCommute) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	return one(m, m.RNode(joinPayload(m, e.Node.Pred, e.Group.Schema),
		cascades.GroupChild(e.Children[1]),
		cascades.GroupChild(e.Children[0])))
}

func unionSet(a, b map[plan.ColumnID]bool) map[plan.ColumnID]bool {
	out := make(map[plan.ColumnID]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// projectOnProject composes adjacent projections by inlining the lower
// projection's expressions into the upper one.
type projectOnProject struct{ info }

func (r projectOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, c := range in.Exprs {
		if c.Node.Op != plan.OpProject {
			continue
		}
		subst := make(map[plan.ColumnID]*plan.Expr, len(c.Node.Projs))
		for _, p := range c.Node.Projs {
			subst[p.Out.ID] = p.Expr
		}
		projs := m.Projections(len(e.Node.Projs))
		okAll := true
		for i, p := range e.Node.Projs {
			ne, ok := substExpr(m, p.Expr, subst)
			if !ok {
				okAll = false
				break
			}
			projs[i] = plan.Projection{Expr: ne, Out: p.Out}
		}
		if !okAll {
			continue
		}
		n := m.Node()
		n.Op, n.Projs, n.Schema = plan.OpProject, projs, e.Group.Schema
		out = append(out, m.RNode(n, cascades.GroupChild(c.Children[0])))
	}
	return out
}

// substExpr carves e with its column references replaced through subst; ok
// is false on a miss.
func substExpr(m *cascades.Memo, e *plan.Expr, subst map[plan.ColumnID]*plan.Expr) (*plan.Expr, bool) {
	if e == nil {
		return nil, true
	}
	if e.Kind == plan.ExprColumn {
		if s, ok := subst[e.Col.ID]; ok {
			return s, true
		}
		return nil, false
	}
	cp := m.Expr()
	*cp = *e
	if len(e.Args) > 0 {
		cp.Args = m.ExprArgs(len(e.Args))
		for i, a := range e.Args {
			na, ok := substExpr(m, a, subst)
			if !ok {
				return nil, false
			}
			cp.Args[i] = na
		}
	}
	return cp, true
}

// processOnUnionAll pushes a user-defined row processor into every union
// branch (the paper's "ProcesOnnUnionAll").
type processOnUnionAll struct{ info }

func (r processOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, u := range in.Exprs {
		if u.Node.Op != plan.OpUnionAll {
			continue
		}
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := m.RChildren(len(branches))
		for i, b := range branches {
			n := m.Node()
			n.Op, n.Processor, n.Schema = plan.OpProcess, e.Node.Processor, b.Schema
			kids[i] = cascades.SubChild(m.RNode(n, cascades.GroupChild(b)))
		}
		out = append(out, union(m, e.Group.Schema, kids))
	}
	return out
}

// groupbyBelowUnionAll turns GroupBy(UnionAll(b...)) into
// GroupByFinal(UnionAll(GroupByLocal(b)...)): branch-local pre-aggregation
// before the union, then a merging aggregation.
type groupbyBelowUnionAll struct{ info }

func (r groupbyBelowUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	if len(e.Node.GroupKeys) == 0 {
		return nil
	}
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, u := range in.Exprs {
		if u.Node.Op != plan.OpUnionAll {
			continue
		}
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := m.RChildren(len(branches))
		var firstLocalSchema []plan.Column
		var firstAggOuts []plan.Column
		okAll := true
		for bi, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			keys, ok := remapCols(m, e.Node.GroupKeys, mp)
			if !ok {
				okAll = false
				break
			}
			// The local schema is the keys followed by the partial
			// aggregates' outputs, which are carved in place.
			schema := m.Columns(len(keys) + len(e.Node.Aggs))
			outs := schema[copy(schema, keys):]
			aggs := m.Aggs(len(e.Node.Aggs))
			for ai, a := range e.Node.Aggs {
				arg, ok := remapExpr(m, a.Arg, mp, nil)
				if !ok {
					okAll = false
					break
				}
				outs[ai] = plan.Column{ID: m.NewColID(), Name: m.Name(a.Out.Name, "_partial")}
				aggs[ai] = plan.Agg{Fn: a.Fn, Arg: arg, Out: outs[ai]}
			}
			if !okAll {
				break
			}
			if bi == 0 {
				firstLocalSchema = schema
				firstAggOuts = outs
			}
			kids[bi] = cascades.SubChild(m.RNode(groupByNode(m, keys, aggs, schema), cascades.GroupChild(b)))
		}
		if !okAll {
			continue
		}
		finalAggs := m.Aggs(len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			finalAggs[ai] = plan.Agg{Fn: mergeAggFn(a.Fn), Arg: plan.ColExpr(m, firstAggOuts[ai]), Out: a.Out}
		}
		out = append(out, m.RNode(groupByNode(m, e.Node.GroupKeys, finalAggs, e.Group.Schema),
			cascades.SubChild(union(m, firstLocalSchema, kids))))
	}
	return out
}

// correlatedJoinOnUnionAll distributes a join over a union:
// Join(UnionAll(b...), R) becomes UnionAll(Join(b, R)...). Whether this wins
// depends entirely on intermediate sizes — "the performance of this rule can
// be extremely sensitive to the sizes of the intermediate results" (§3.2),
// which is why the family is off by default. Variants differ by the side
// holding the union and the branch-count guard.
type correlatedJoinOnUnionAll struct {
	info
	side        int // which join child holds the union
	minBranches int
	maxBranches int
}

func (r correlatedJoinOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	other := e.Children[1-r.side]
	keep := schemaSet(other)
	in := e.Children[r.side]
	out := m.Results(len(in.Exprs))
	for _, u := range in.Exprs {
		if u.Node.Op != plan.OpUnionAll {
			continue
		}
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		if len(branches) < r.minBranches || (r.maxBranches > 0 && len(branches) > r.maxBranches) {
			continue
		}
		kids := m.RChildren(len(branches))
		okAll := true
		for i, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			pred, ok := remapExpr(m, e.Node.Pred, mp, keep)
			if !ok {
				okAll = false
				break
			}
			var join *cascades.RNode
			if r.side == 0 {
				join = m.RNode(joinPayload(m, pred, m.Concat(b.Schema, other.Schema)),
					cascades.GroupChild(b), cascades.GroupChild(other))
			} else {
				join = m.RNode(joinPayload(m, pred, m.Concat(other.Schema, b.Schema)),
					cascades.GroupChild(other), cascades.GroupChild(b))
			}
			kids[i] = cascades.SubChild(join)
		}
		if !okAll {
			continue
		}
		out = append(out, union(m, e.Group.Schema, kids))
	}
	return out
}

// groupbyOnJoin pushes an eager pre-aggregation below one join side when the
// grouping keys, aggregate arguments and join-referenced columns of that side
// are covered. Off by default: its benefit hinges on the join's true
// fan-out.
type groupbyOnJoin struct {
	info
	side int // join side receiving the pre-aggregation
}

func (r groupbyOnJoin) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	if len(e.Node.GroupKeys) == 0 {
		return nil
	}
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, j := range in.Exprs {
		if j.Node.Op != plan.OpJoin {
			continue
		}
		target := j.Children[r.side]
		other := j.Children[1-r.side]
		tset := schemaSet(target)
		oset := schemaSet(other)
		// Keys and aggregate arguments must come from the target side.
		okSide := true
		for _, k := range e.Node.GroupKeys {
			if !tset[k.ID] {
				okSide = false
				break
			}
		}
		for _, a := range e.Node.Aggs {
			if a.Arg != nil && !a.Arg.RefersOnly(tset) {
				okSide = false
				break
			}
		}
		if !okSide {
			continue
		}
		tk, _ := equiKeys(m, j.Node.Pred, target.Schema, other.Schema)
		if len(tk) == 0 {
			continue
		}
		innerKeys := append(m.Columns(len(e.Node.GroupKeys) + len(tk))[:0], e.Node.GroupKeys...)
		have := make(map[plan.ColumnID]bool)
		for _, k := range innerKeys {
			have[k.ID] = true
		}
		for _, k := range tk {
			if !have[k.ID] {
				innerKeys = append(innerKeys, k)
				have[k.ID] = true
			}
		}
		// Every target-side column the join predicate touches must survive
		// the pre-aggregation.
		predOK := j.Node.Pred.RefersOnly(unionSet(have, oset))
		if !predOK {
			continue
		}
		// The local schema is the keys followed by the eager aggregates'
		// outputs, which are carved in place.
		localSchema := m.Columns(len(innerKeys) + len(e.Node.Aggs))
		outs := localSchema[copy(localSchema, innerKeys):]
		localAggs := m.Aggs(len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			outs[ai] = plan.Column{ID: m.NewColID(), Name: m.Name(a.Out.Name, "_eager")}
			localAggs[ai] = plan.Agg{Fn: a.Fn, Arg: a.Arg, Out: outs[ai]}
		}
		local := cascades.SubChild(m.RNode(groupByNode(m, innerKeys, localAggs, localSchema), cascades.GroupChild(target)))
		var join *cascades.RNode
		if r.side == 0 {
			join = m.RNode(joinPayload(m, j.Node.Pred, m.Concat(localSchema, other.Schema)), local, cascades.GroupChild(other))
		} else {
			join = m.RNode(joinPayload(m, j.Node.Pred, m.Concat(other.Schema, localSchema)), cascades.GroupChild(other), local)
		}
		finalAggs := m.Aggs(len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			finalAggs[ai] = plan.Agg{Fn: mergeAggFn(a.Fn), Arg: plan.ColExpr(m, outs[ai]), Out: a.Out}
		}
		out = append(out, m.RNode(groupByNode(m, e.Node.GroupKeys, finalAggs, e.Group.Schema), cascades.SubChild(join)))
	}
	return out
}

// topOnUnionAll pushes a branch-local top-N into every union branch while
// keeping the global top above.
type topOnUnionAll struct{ info }

func (r topOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, u := range in.Exprs {
		if u.Node.Op != plan.OpUnionAll {
			continue
		}
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := m.RChildren(len(branches))
		okAll := true
		for i, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			keys := m.SortKeys(len(e.Node.SortKeys))
			for ki, k := range e.Node.SortKeys {
				nc, ok := mp[k.Col.ID]
				if !ok {
					okAll = false
					break
				}
				keys[ki] = plan.SortKey{Col: nc, Desc: k.Desc}
			}
			if !okAll {
				break
			}
			kids[i] = cascades.SubChild(m.RNode(topNode(m, e.Node.TopN, keys, b.Schema), cascades.GroupChild(b)))
		}
		if !okAll {
			continue
		}
		out = append(out, m.RNode(topNode(m, e.Node.TopN, e.Node.SortKeys, e.Group.Schema),
			cascades.SubChild(union(m, u.Group.Schema, kids))))
	}
	return out
}

// selectSplitDisjunction rewrites a two-way disjunctive filter into a union
// of two filtered branches. Off by default: it duplicates rows matching both
// disjuncts and pays a second pass over the input, but parallelizes highly
// selective disjuncts.
type selectSplitDisjunction struct{ info }

func (r selectSplitDisjunction) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	if e.Node.Pred == nil || e.Node.Pred.Kind != plan.ExprOr || len(e.Node.Pred.Args) != 2 {
		return nil
	}
	child := e.Children[0]
	branch := func(p *plan.Expr) cascades.RChild {
		return cascades.SubChild(m.RNode(selNode(m, p, child.Schema), cascades.GroupChild(child)))
	}
	return one(m, m.RNode(unionPayload(m, e.Group.Schema), branch(e.Node.Pred.Args[0]), branch(e.Node.Pred.Args[1])))
}

// topOnProject pushes a top-N below a projection when every sort key passes
// through.
type topOnProject struct{ info }

func (r topOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, c := range in.Exprs {
		if c.Node.Op != plan.OpProject {
			continue
		}
		below := c.Children[0]
		bset := schemaSet(below)
		okAll := true
		for _, k := range e.Node.SortKeys {
			if !bset[k.Col.ID] {
				okAll = false
				break
			}
		}
		if !okAll {
			continue
		}
		top := m.RNode(topNode(m, e.Node.TopN, e.Node.SortKeys, below.Schema), cascades.GroupChild(below))
		out = append(out, m.RNode(c.Node, cascades.SubChild(top)))
	}
	return out
}

// groupbyOnProject pushes an aggregation below a projection when every group
// key and aggregate argument passes through unchanged; the projection becomes
// redundant because the aggregation defines the output schema itself.
type groupbyOnProject struct{ info }

func (r groupbyOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	in := e.Children[0]
	out := m.Results(len(in.Exprs))
	for _, c := range in.Exprs {
		if c.Node.Op != plan.OpProject {
			continue
		}
		below := c.Children[0]
		bset := schemaSet(below)
		ok := true
		for _, k := range e.Node.GroupKeys {
			if !bset[k.ID] {
				ok = false
				break
			}
		}
		for _, a := range e.Node.Aggs {
			if a.Arg != nil && !a.Arg.RefersOnly(bset) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, m.RNode(copyNode(m, e.Node, e.Group.Schema), cascades.GroupChild(below)))
	}
	return out
}
