package rules

import (
	"fmt"
	"sort"

	"steerq/internal/cascades"
	"steerq/internal/plan"
)

// unionPayload builds a UnionAll payload node with the given output schema.
func unionPayload(schema []plan.Column) *plan.Node {
	return &plan.Node{Op: plan.OpUnionAll, Schema: schema}
}

// joinPayload copies a join payload with the given output schema.
func joinPayload(pred *plan.Expr, schema []plan.Column) *plan.Node {
	return &plan.Node{Op: plan.OpJoin, Pred: pred, Schema: schema}
}

// collapseSelects merges Select(Select(X, p2), p1) into Select(X, p1 AND p2).
// The merged conjunction changes the estimator's backoff order, so this rule
// shows up in RuleDiffs of faster plans (the paper's Q_B1 gained -96% with
// CollapseSelects only in the best plan).
type collapseSelects struct{ info }

func (r collapseSelects) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, c := range exprsWithOp(e.Children[0], plan.OpSelect) {
		merged := plan.And(c.Node.Pred, e.Node.Pred)
		out = append(out, &cascades.RNode{
			Node:     selNode(merged, e.Group.Schema),
			Children: []cascades.RChild{cascades.GroupChild(c.Children[0])},
		})
	}
	return out
}

// selectOnProject pushes a filter below a projection when the predicate only
// references pass-through columns.
type selectOnProject struct{ info }

func (r selectOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, c := range exprsWithOp(e.Children[0], plan.OpProject) {
		below := c.Children[0]
		if !e.Node.Pred.RefersOnly(schemaSet(below)) {
			continue
		}
		sub := &cascades.RNode{
			Node:     selNode(e.Node.Pred, below.Schema),
			Children: []cascades.RChild{cascades.GroupChild(below)},
		}
		out = append(out, &cascades.RNode{
			Node:     c.Node,
			Children: []cascades.RChild{cascades.SubChild(sub)},
		})
	}
	return out
}

// selectOnJoin pushes the conjuncts referring to one join side below the
// join. side 0 pushes into the left child, side 1 into the right.
type selectOnJoin struct {
	info
	side int
}

func (r selectOnJoin) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, j := range exprsWithOp(e.Children[0], plan.OpJoin) {
		target := j.Children[r.side]
		other := j.Children[1-r.side]
		tset := schemaSet(target)
		var push, rest []*plan.Expr
		for _, cj := range plan.Conjuncts(e.Node.Pred) {
			if cj.RefersOnly(tset) {
				push = append(push, cj)
			} else {
				rest = append(rest, cj)
			}
		}
		if len(push) == 0 {
			continue
		}
		sub := &cascades.RNode{
			Node:     selNode(plan.And(push...), target.Schema),
			Children: []cascades.RChild{cascades.GroupChild(target)},
		}
		kids := make([]cascades.RChild, 2)
		kids[r.side] = cascades.SubChild(sub)
		kids[1-r.side] = cascades.GroupChild(other)
		join := &cascades.RNode{
			Node:     joinPayload(j.Node.Pred, j.Group.Schema),
			Children: kids,
		}
		if len(rest) == 0 {
			out = append(out, join)
			continue
		}
		out = append(out, &cascades.RNode{
			Node:     selNode(plan.And(rest...), e.Group.Schema),
			Children: []cascades.RChild{cascades.SubChild(join)},
		})
	}
	return out
}

// selectOnUnionAll pushes a filter into every union branch.
type selectOnUnionAll struct{ info }

func (r selectOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, u := range exprsWithOp(e.Children[0], plan.OpUnionAll) {
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := make([]cascades.RChild, 0, len(branches))
		okAll := true
		for _, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			pred, ok := remapExpr(e.Node.Pred, mp, nil)
			if !ok {
				okAll = false
				break
			}
			kids = append(kids, cascades.SubChild(&cascades.RNode{
				Node:     selNode(pred, b.Schema),
				Children: []cascades.RChild{cascades.GroupChild(b)},
			}))
		}
		if !okAll {
			continue
		}
		out = append(out, &cascades.RNode{Node: unionPayload(e.Group.Schema), Children: kids})
	}
	return out
}

// selectOnGroupBy pushes conjuncts that reference only grouping keys below
// the aggregation.
type selectOnGroupBy struct{ info }

func (r selectOnGroupBy) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, gb := range exprsWithOp(e.Children[0], plan.OpGroupBy) {
		keySet := make(map[plan.ColumnID]bool, len(gb.Node.GroupKeys))
		for _, k := range gb.Node.GroupKeys {
			keySet[k.ID] = true
		}
		var push, rest []*plan.Expr
		for _, cj := range plan.Conjuncts(e.Node.Pred) {
			if cj.RefersOnly(keySet) {
				push = append(push, cj)
			} else {
				rest = append(rest, cj)
			}
		}
		if len(push) == 0 {
			continue
		}
		below := gb.Children[0]
		sub := &cascades.RNode{
			Node:     selNode(plan.And(push...), below.Schema),
			Children: []cascades.RChild{cascades.GroupChild(below)},
		}
		gbNode := *gb.Node
		gbNode.Schema = gb.Group.Schema
		inner := &cascades.RNode{Node: &gbNode, Children: []cascades.RChild{cascades.SubChild(sub)}}
		if len(rest) == 0 {
			out = append(out, inner)
			continue
		}
		out = append(out, &cascades.RNode{
			Node:     selNode(plan.And(rest...), e.Group.Schema),
			Children: []cascades.RChild{cascades.SubChild(inner)},
		})
	}
	return out
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
	conj := append([]*plan.Expr(nil), e.Node.Pred.Args...)
	if len(conj) < 2 {
		return nil
	}
	est := m.Estimator()
	props := e.Children[0].Props
	sort.SliceStable(conj, func(i, j int) bool {
		return est.Selectivity(conj[i], props) < est.Selectivity(conj[j], props)
	})
	return []*cascades.RNode{{
		Node:     selNode(plan.And(conj...), e.Group.Schema),
		Children: []cascades.RChild{cascades.GroupChild(e.Children[0])},
	}}
}

// selectOnTrue removes trivially true conjuncts (const == const, col == same
// col).
type selectOnTrue struct{ info }

func trivialConjunct(c *plan.Expr) bool {
	if c.Kind != plan.ExprCmp || len(c.Args) != 2 {
		return false
	}
	l, rr := c.Args[0], c.Args[1]
	if l.Kind == plan.ExprConst && rr.Kind == plan.ExprConst {
		if l.Lit.IsString != rr.Lit.IsString {
			return false
		}
		eq := l.Lit.S == rr.Lit.S && l.Lit.F == rr.Lit.F
		switch c.Op {
		case plan.OpEQ, plan.OpLE, plan.OpGE:
			return eq
		}
		return false
	}
	if l.Kind == plan.ExprColumn && rr.Kind == plan.ExprColumn && l.Col.ID == rr.Col.ID {
		switch c.Op {
		case plan.OpEQ, plan.OpLE, plan.OpGE:
			return true
		}
	}
	return false
}

func (r selectOnTrue) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	if e.Node.Pred == nil {
		return nil
	}
	conj := plan.Conjuncts(e.Node.Pred)
	kept := make([]*plan.Expr, 0, len(conj))
	for _, c := range conj {
		if !trivialConjunct(c) {
			kept = append(kept, c)
		}
	}
	if len(kept) == len(conj) || len(kept) == 0 {
		return nil
	}
	return []*cascades.RNode{{
		Node:     selNode(plan.And(kept...), e.Group.Schema),
		Children: []cascades.RChild{cascades.GroupChild(e.Children[0])},
	}}
}

// selectIntoGet merges a filter into the scan beneath it, enabling the
// RangeScan implementation.
type selectIntoGet struct{ info }

func (r selectIntoGet) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, g := range exprsWithOp(e.Children[0], plan.OpGet) {
		n := *g.Node
		n.Pred = plan.And(g.Node.Pred, e.Node.Pred)
		out = append(out, &cascades.RNode{Node: &n})
	}
	return out
}

// joinCommute swaps join inputs, flipping build/probe economics of the
// physical joins downstream.
type joinCommute struct{ info }

func (r joinCommute) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	return []*cascades.RNode{{
		Node: joinPayload(e.Node.Pred, e.Group.Schema),
		Children: []cascades.RChild{
			cascades.GroupChild(e.Children[1]),
			cascades.GroupChild(e.Children[0]),
		},
	}}
}

// joinAssoc reassociates (A ⋈ B) ⋈ C into A ⋈ (B ⋈ C) (side 0) and
// A ⋈ (B ⋈ C) into (A ⋈ B) ⋈ C (side 1).
type joinAssoc struct {
	info
	side int // which child contains the nested join
}

func (r joinAssoc) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, j := range exprsWithOp(e.Children[r.side], plan.OpJoin) {
		var a, b, c *cascades.Group
		if r.side == 0 {
			a, b = j.Children[0], j.Children[1]
			c = e.Children[1]
		} else {
			a = e.Children[0]
			b, c = j.Children[0], j.Children[1]
		}
		// Split the outer predicate: conjuncts over the two groups that
		// form the new inner join move inside.
		var innerSet map[plan.ColumnID]bool
		if r.side == 0 {
			innerSet = unionSet(schemaSet(b), schemaSet(c))
		} else {
			innerSet = unionSet(schemaSet(a), schemaSet(b))
		}
		var inner, outer []*plan.Expr
		for _, cj := range plan.Conjuncts(e.Node.Pred) {
			if cj.RefersOnly(innerSet) {
				inner = append(inner, cj)
			} else {
				outer = append(outer, cj)
			}
		}
		if len(inner) == 0 {
			continue // would create a cross join inside
		}
		outer = append(outer, plan.Conjuncts(j.Node.Pred)...)
		if r.side == 0 {
			innerJoin := &cascades.RNode{
				Node:     joinPayload(plan.And(inner...), concatSchema(b, c)),
				Children: []cascades.RChild{cascades.GroupChild(b), cascades.GroupChild(c)},
			}
			out = append(out, &cascades.RNode{
				Node:     joinPayload(plan.And(outer...), e.Group.Schema),
				Children: []cascades.RChild{cascades.GroupChild(a), cascades.SubChild(innerJoin)},
			})
		} else {
			innerJoin := &cascades.RNode{
				Node:     joinPayload(plan.And(inner...), concatSchema(a, b)),
				Children: []cascades.RChild{cascades.GroupChild(a), cascades.GroupChild(b)},
			}
			out = append(out, &cascades.RNode{
				Node:     joinPayload(plan.And(outer...), e.Group.Schema),
				Children: []cascades.RChild{cascades.SubChild(innerJoin), cascades.GroupChild(c)},
			})
		}
	}
	return out
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

func concatSchema(a, b *cascades.Group) []plan.Column {
	out := make([]plan.Column, 0, len(a.Schema)+len(b.Schema))
	out = append(out, a.Schema...)
	out = append(out, b.Schema...)
	return out
}

// projectOnProject composes adjacent projections by inlining the lower
// projection's expressions into the upper one.
type projectOnProject struct{ info }

func (r projectOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, c := range exprsWithOp(e.Children[0], plan.OpProject) {
		subst := make(map[plan.ColumnID]*plan.Expr, len(c.Node.Projs))
		for _, p := range c.Node.Projs {
			subst[p.Out.ID] = p.Expr
		}
		projs := make([]plan.Projection, len(e.Node.Projs))
		okAll := true
		for i, p := range e.Node.Projs {
			ne, ok := substExpr(p.Expr, subst)
			if !ok {
				okAll = false
				break
			}
			projs[i] = plan.Projection{Expr: ne, Out: p.Out}
		}
		if !okAll {
			continue
		}
		out = append(out, &cascades.RNode{
			Node:     &plan.Node{Op: plan.OpProject, Projs: projs, Schema: e.Group.Schema},
			Children: []cascades.RChild{cascades.GroupChild(c.Children[0])},
		})
	}
	return out
}

// substExpr replaces column references through subst; ok is false on a miss.
func substExpr(e *plan.Expr, subst map[plan.ColumnID]*plan.Expr) (*plan.Expr, bool) {
	if e == nil {
		return nil, true
	}
	if e.Kind == plan.ExprColumn {
		if s, ok := subst[e.Col.ID]; ok {
			return s, true
		}
		return nil, false
	}
	cp := *e
	if len(e.Args) > 0 {
		cp.Args = make([]*plan.Expr, len(e.Args))
		for i, a := range e.Args {
			na, ok := substExpr(a, subst)
			if !ok {
				return nil, false
			}
			cp.Args[i] = na
		}
	}
	return &cp, true
}

// unionAllFlatten splices a nested union's branches into its parent.
type unionAllFlatten struct{ info }

func (r unionAllFlatten) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for i, ch := range e.Children {
		for _, u := range exprsWithOp(ch, plan.OpUnionAll) {
			if u.Group == e.Group {
				continue
			}
			branches, ok := alignedUnionBranches(u)
			if !ok {
				continue
			}
			kids := make([]cascades.RChild, 0, len(e.Children)+len(branches)-1)
			for k, other := range e.Children {
				if k == i {
					for _, b := range branches {
						kids = append(kids, cascades.GroupChild(b))
					}
				} else {
					kids = append(kids, cascades.GroupChild(other))
				}
			}
			out = append(out, &cascades.RNode{Node: unionPayload(e.Group.Schema), Children: kids})
			break // one splice per child per application
		}
	}
	return out
}

// processOnUnionAll pushes a user-defined row processor into every union
// branch (the paper's "ProcesOnnUnionAll").
type processOnUnionAll struct{ info }

func (r processOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, u := range exprsWithOp(e.Children[0], plan.OpUnionAll) {
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := make([]cascades.RChild, 0, len(branches))
		for _, b := range branches {
			kids = append(kids, cascades.SubChild(&cascades.RNode{
				Node:     &plan.Node{Op: plan.OpProcess, Processor: e.Node.Processor, Schema: b.Schema},
				Children: []cascades.RChild{cascades.GroupChild(b)},
			}))
		}
		out = append(out, &cascades.RNode{Node: unionPayload(e.Group.Schema), Children: kids})
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
	var out []*cascades.RNode
	for _, u := range exprsWithOp(e.Children[0], plan.OpUnionAll) {
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := make([]cascades.RChild, 0, len(branches))
		var firstLocalSchema []plan.Column
		var firstAggOuts []plan.Column
		okAll := true
		for bi, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			keys, ok := remapCols(e.Node.GroupKeys, mp)
			if !ok {
				okAll = false
				break
			}
			aggs := make([]plan.Agg, len(e.Node.Aggs))
			outs := make([]plan.Column, len(e.Node.Aggs))
			for ai, a := range e.Node.Aggs {
				arg, ok := remapExpr(a.Arg, mp, nil)
				if !ok {
					okAll = false
					break
				}
				outs[ai] = plan.Column{ID: m.NewColID(), Name: a.Out.Name + "_partial"}
				aggs[ai] = plan.Agg{Fn: a.Fn, Arg: arg, Out: outs[ai]}
			}
			if !okAll {
				break
			}
			schema := append(append([]plan.Column(nil), keys...), outs...)
			if bi == 0 {
				firstLocalSchema = schema
				firstAggOuts = outs
			}
			kids = append(kids, cascades.SubChild(&cascades.RNode{
				Node:     &plan.Node{Op: plan.OpGroupBy, GroupKeys: keys, Aggs: aggs, Schema: schema},
				Children: []cascades.RChild{cascades.GroupChild(b)},
			}))
		}
		if !okAll {
			continue
		}
		union := &cascades.RNode{Node: unionPayload(firstLocalSchema), Children: kids}
		finalAggs := make([]plan.Agg, len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			finalAggs[ai] = plan.Agg{Fn: mergeAggFn(a.Fn), Arg: plan.ColExpr(firstAggOuts[ai]), Out: a.Out}
		}
		out = append(out, &cascades.RNode{
			Node: &plan.Node{
				Op:        plan.OpGroupBy,
				GroupKeys: e.Node.GroupKeys,
				Aggs:      finalAggs,
				Schema:    e.Group.Schema,
			},
			Children: []cascades.RChild{cascades.SubChild(union)},
		})
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
	var out []*cascades.RNode
	for _, u := range exprsWithOp(e.Children[r.side], plan.OpUnionAll) {
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		if len(branches) < r.minBranches || (r.maxBranches > 0 && len(branches) > r.maxBranches) {
			continue
		}
		kids := make([]cascades.RChild, 0, len(branches))
		okAll := true
		for _, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			pred, ok := remapExpr(e.Node.Pred, mp, keep)
			if !ok {
				okAll = false
				break
			}
			var schema []plan.Column
			var jk []cascades.RChild
			if r.side == 0 {
				schema = append(append([]plan.Column(nil), b.Schema...), other.Schema...)
				jk = []cascades.RChild{cascades.GroupChild(b), cascades.GroupChild(other)}
			} else {
				schema = append(append([]plan.Column(nil), other.Schema...), b.Schema...)
				jk = []cascades.RChild{cascades.GroupChild(other), cascades.GroupChild(b)}
			}
			kids = append(kids, cascades.SubChild(&cascades.RNode{
				Node:     joinPayload(pred, schema),
				Children: jk,
			}))
		}
		if !okAll {
			continue
		}
		out = append(out, &cascades.RNode{Node: unionPayload(e.Group.Schema), Children: kids})
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
	var out []*cascades.RNode
	for _, j := range exprsWithOp(e.Children[0], plan.OpJoin) {
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
		tk, ok2 := sideEquiKeys(j.Node.Pred, tset, oset)
		if !ok2 || len(tk) == 0 {
			continue
		}
		innerKeys := append([]plan.Column(nil), e.Node.GroupKeys...)
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
		outs := make([]plan.Column, len(e.Node.Aggs))
		localAggs := make([]plan.Agg, len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			outs[ai] = plan.Column{ID: m.NewColID(), Name: a.Out.Name + "_eager"}
			localAggs[ai] = plan.Agg{Fn: a.Fn, Arg: a.Arg, Out: outs[ai]}
		}
		localSchema := append(append([]plan.Column(nil), innerKeys...), outs...)
		local := &cascades.RNode{
			Node:     &plan.Node{Op: plan.OpGroupBy, GroupKeys: innerKeys, Aggs: localAggs, Schema: localSchema},
			Children: []cascades.RChild{cascades.GroupChild(target)},
		}
		var joinSchema []plan.Column
		var jk []cascades.RChild
		if r.side == 0 {
			joinSchema = append(append([]plan.Column(nil), localSchema...), other.Schema...)
			jk = []cascades.RChild{cascades.SubChild(local), cascades.GroupChild(other)}
		} else {
			joinSchema = append(append([]plan.Column(nil), other.Schema...), localSchema...)
			jk = []cascades.RChild{cascades.GroupChild(other), cascades.SubChild(local)}
		}
		join := &cascades.RNode{Node: joinPayload(j.Node.Pred, joinSchema), Children: jk}
		finalAggs := make([]plan.Agg, len(e.Node.Aggs))
		for ai, a := range e.Node.Aggs {
			finalAggs[ai] = plan.Agg{Fn: mergeAggFn(a.Fn), Arg: plan.ColExpr(outs[ai]), Out: a.Out}
		}
		out = append(out, &cascades.RNode{
			Node: &plan.Node{
				Op:        plan.OpGroupBy,
				GroupKeys: e.Node.GroupKeys,
				Aggs:      finalAggs,
				Schema:    e.Group.Schema,
			},
			Children: []cascades.RChild{cascades.SubChild(join)},
		})
	}
	return out
}

// sideEquiKeys returns the equi-join key columns belonging to the side
// described by tset; ok is false when the predicate has no two-sided equi
// conjunct.
func sideEquiKeys(pred *plan.Expr, tset, oset map[plan.ColumnID]bool) ([]plan.Column, bool) {
	lk, rk := equiKeys(pred, tset, oset)
	if len(lk) == 0 && len(rk) == 0 {
		return nil, false
	}
	return lk, true
}

// topOnUnionAll pushes a branch-local top-N into every union branch while
// keeping the global top above.
type topOnUnionAll struct{ info }

func (r topOnUnionAll) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, u := range exprsWithOp(e.Children[0], plan.OpUnionAll) {
		branches, ok := alignedUnionBranches(u)
		if !ok {
			continue
		}
		kids := make([]cascades.RChild, 0, len(branches))
		okAll := true
		for _, b := range branches {
			mp, ok := positionalMap(u.Group.Schema, b.Schema)
			if !ok {
				okAll = false
				break
			}
			keys := make([]plan.SortKey, len(e.Node.SortKeys))
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
			kids = append(kids, cascades.SubChild(&cascades.RNode{
				Node:     &plan.Node{Op: plan.OpTop, TopN: e.Node.TopN, SortKeys: keys, Schema: b.Schema},
				Children: []cascades.RChild{cascades.GroupChild(b)},
			}))
		}
		if !okAll {
			continue
		}
		union := &cascades.RNode{Node: unionPayload(u.Group.Schema), Children: kids}
		out = append(out, &cascades.RNode{
			Node:     &plan.Node{Op: plan.OpTop, TopN: e.Node.TopN, SortKeys: e.Node.SortKeys, Schema: e.Group.Schema},
			Children: []cascades.RChild{cascades.SubChild(union)},
		})
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
	mk := func(p *plan.Expr) cascades.RChild {
		return cascades.SubChild(&cascades.RNode{
			Node:     selNode(p, child.Schema),
			Children: []cascades.RChild{cascades.GroupChild(child)},
		})
	}
	return []*cascades.RNode{{
		Node:     unionPayload(e.Group.Schema),
		Children: []cascades.RChild{mk(e.Node.Pred.Args[0]), mk(e.Node.Pred.Args[1])},
	}}
}

// topOnProject pushes a top-N below a projection when every sort key passes
// through.
type topOnProject struct{ info }

func (r topOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, c := range exprsWithOp(e.Children[0], plan.OpProject) {
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
		top := &cascades.RNode{
			Node:     &plan.Node{Op: plan.OpTop, TopN: e.Node.TopN, SortKeys: e.Node.SortKeys, Schema: below.Schema},
			Children: []cascades.RChild{cascades.GroupChild(below)},
		}
		out = append(out, &cascades.RNode{
			Node:     c.Node,
			Children: []cascades.RChild{cascades.SubChild(top)},
		})
	}
	return out
}

// groupbyOnProject pushes an aggregation below a projection when every group
// key and aggregate argument passes through unchanged; the projection becomes
// redundant because the aggregation defines the output schema itself.
type groupbyOnProject struct{ info }

func (r groupbyOnProject) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, c := range exprsWithOp(e.Children[0], plan.OpProject) {
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
		gbNode := *e.Node
		gbNode.Schema = e.Group.Schema
		out = append(out, &cascades.RNode{
			Node:     &gbNode,
			Children: []cascades.RChild{cascades.GroupChild(below)},
		})
	}
	return out
}

// transitivePredicate derives predicates across equi-join keys: with
// Select(Join(L, R, lk == rk), pred) and a conjunct of pred constraining lk
// against a constant, the same constraint holds for rk (and vice versa), so
// the rewrite adds the mirrored conjunct. The enriched predicate unlocks
// pushdown into both join sides and tightens estimates.
type transitivePredicate struct{ info }

func (r transitivePredicate) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, j := range exprsWithOp(e.Children[0], plan.OpJoin) {
		// Map each equi key to its counterpart on the other side.
		mirror := make(map[plan.ColumnID]plan.Column)
		for _, cj := range plan.Conjuncts(j.Node.Pred) {
			if a, b, ok := cj.EquiJoinSides(); ok {
				mirror[a.ID] = b
				mirror[b.ID] = a
			}
		}
		if len(mirror) == 0 {
			continue
		}
		conj := plan.Conjuncts(e.Node.Pred)
		// Dedup by (column ID, operator, literal): two columns can share a
		// name across join sides, so the display string is not a key.
		key := func(c *plan.Expr) (string, bool) {
			col, ok := singleColumnConst(c)
			if !ok {
				return "", false
			}
			return fmt.Sprintf("%d|%d|%s", col.ID, c.Op, c.Args[1].String()+c.Args[0].String()), true
		}
		have := make(map[string]bool, len(conj))
		for _, c := range conj {
			if k, ok := key(c); ok {
				have[k] = true
			}
		}
		var derived []*plan.Expr
		for _, c := range conj {
			col, ok := singleColumnConst(c)
			if !ok {
				continue
			}
			other, ok := mirror[col.ID]
			if !ok {
				continue
			}
			d := c.Clone()
			substituteColumn(d, col.ID, other)
			if k, ok := key(d); ok && !have[k] {
				have[k] = true
				derived = append(derived, d)
			}
		}
		if len(derived) == 0 {
			continue
		}
		merged := plan.And(append(append([]*plan.Expr(nil), conj...), derived...)...)
		out = append(out, &cascades.RNode{
			Node:     selNode(merged, e.Group.Schema),
			Children: []cascades.RChild{cascades.GroupChild(e.Children[0])},
		})
	}
	return out
}

// singleColumnConst matches a col-op-const comparison and returns its column.
func singleColumnConst(c *plan.Expr) (plan.Column, bool) {
	if c.Kind != plan.ExprCmp || len(c.Args) != 2 {
		return plan.Column{}, false
	}
	l, r := c.Args[0], c.Args[1]
	if l.Kind == plan.ExprColumn && r.Kind == plan.ExprConst {
		return l.Col, true
	}
	if r.Kind == plan.ExprColumn && l.Kind == plan.ExprConst {
		return r.Col, true
	}
	return plan.Column{}, false
}

// substituteColumn rewrites references to id with col, in place on a clone.
func substituteColumn(e *plan.Expr, id plan.ColumnID, col plan.Column) {
	if e == nil {
		return
	}
	if e.Kind == plan.ExprColumn && e.Col.ID == id {
		e.Col = col
		return
	}
	for _, a := range e.Args {
		substituteColumn(a, id, col)
	}
}

// udoPredicateTransfer pushes filter conjuncts that reference only a
// reducer's key columns below the REDUCE: a per-key user-defined reducer
// emits rows only for key groups that exist in its input, so key predicates
// commute with it. Non-key conjuncts must stay above the opaque UDO.
type udoPredicateTransfer struct{ info }

func (r udoPredicateTransfer) Apply(e *cascades.MExpr, m *cascades.Memo) []*cascades.RNode {
	var out []*cascades.RNode
	for _, red := range exprsWithOp(e.Children[0], plan.OpReduce) {
		keySet := make(map[plan.ColumnID]bool, len(red.Node.ReduceKeys))
		for _, k := range red.Node.ReduceKeys {
			keySet[k.ID] = true
		}
		var push, rest []*plan.Expr
		for _, cj := range plan.Conjuncts(e.Node.Pred) {
			if cj.RefersOnly(keySet) {
				push = append(push, cj)
			} else {
				rest = append(rest, cj)
			}
		}
		if len(push) == 0 {
			continue
		}
		below := red.Children[0]
		sub := &cascades.RNode{
			Node:     selNode(plan.And(push...), below.Schema),
			Children: []cascades.RChild{cascades.GroupChild(below)},
		}
		redNode := *red.Node
		redNode.Schema = red.Group.Schema
		inner := &cascades.RNode{Node: &redNode, Children: []cascades.RChild{cascades.SubChild(sub)}}
		if len(rest) == 0 {
			out = append(out, inner)
			continue
		}
		out = append(out, &cascades.RNode{
			Node:     selNode(plan.And(rest...), e.Group.Schema),
			Children: []cascades.RChild{cascades.SubChild(inner)},
		})
	}
	return out
}
