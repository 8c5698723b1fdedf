package rules

import (
	"steerq/internal/cascades"
	"steerq/internal/plan"
)

// info is a shared Info() implementation.
type info cascades.RuleInfo

func (i info) Info() cascades.RuleInfo { return cascades.RuleInfo(i) }

// schemaSet returns the column-ID set of a group's canonical schema.
func schemaSet(g *cascades.Group) map[plan.ColumnID]bool {
	set := make(map[plan.ColumnID]bool, len(g.Schema))
	for _, c := range g.Schema {
		set[c.ID] = true
	}
	return set
}

// positionalMap maps column IDs of `from` to the same-position columns of
// `to`; ok is false on arity mismatch.
func positionalMap(from, to []plan.Column) (map[plan.ColumnID]plan.Column, bool) {
	if len(from) != len(to) {
		return nil, false
	}
	m := make(map[plan.ColumnID]plan.Column, len(from))
	for i := range from {
		m[from[i].ID] = to[i]
	}
	return m, true
}

// remapExpr carves e with its column references rewritten through mp. ok is
// false when a referenced column is missing from mp and from keep (columns
// allowed to pass unmapped).
func remapExpr(m *cascades.Memo, e *plan.Expr, mp map[plan.ColumnID]plan.Column, keep map[plan.ColumnID]bool) (*plan.Expr, bool) {
	if e == nil {
		return nil, true
	}
	if e.Kind == plan.ExprColumn {
		if c, ok := mp[e.Col.ID]; ok {
			return plan.ColExpr(m, c), true
		}
		if keep != nil && keep[e.Col.ID] {
			return e, true
		}
		return nil, false
	}
	cp := m.Expr()
	*cp = *e
	if len(e.Args) > 0 {
		cp.Args = m.ExprArgs(len(e.Args))
		for i, a := range e.Args {
			na, ok := remapExpr(m, a, mp, keep)
			if !ok {
				return nil, false
			}
			cp.Args[i] = na
		}
	}
	return cp, true
}

// remapCols carves cols rewritten through mp; ok is false on a miss.
func remapCols(m *cascades.Memo, cols []plan.Column, mp map[plan.ColumnID]plan.Column) ([]plan.Column, bool) {
	out := m.Columns(len(cols))
	for i, c := range cols {
		nc, ok := mp[c.ID]
		if !ok {
			return nil, false
		}
		out[i] = nc
	}
	return out, true
}

// selNode carves a Select payload over the given schema.
func selNode(m *cascades.Memo, pred *plan.Expr, schema []plan.Column) *plan.Node {
	n := m.Node()
	n.Op, n.Pred, n.Schema = plan.OpSelect, pred, schema
	return n
}

// unionPayload carves a UnionAll payload with the given output schema.
func unionPayload(m *cascades.Memo, schema []plan.Column) *plan.Node {
	n := m.Node()
	n.Op, n.Schema = plan.OpUnionAll, schema
	return n
}

// joinPayload carves a join payload with the given output schema.
func joinPayload(m *cascades.Memo, pred *plan.Expr, schema []plan.Column) *plan.Node {
	n := m.Node()
	n.Op, n.Pred, n.Schema = plan.OpJoin, pred, schema
	return n
}

// copyNode carves a copy of payload src with the given schema.
func copyNode(m *cascades.Memo, src *plan.Node, schema []plan.Column) *plan.Node {
	n := m.Node()
	*n = *src
	n.Schema = schema
	return n
}

// alignedUnionBranches returns the child groups of a union expression when
// the union group's canonical schema positionally matches its first branch
// (the invariant established by the binder); ok is false otherwise, and the
// caller should not rewrite through this union.
func alignedUnionBranches(u *cascades.MExpr) ([]*cascades.Group, bool) {
	g := u.Group
	if len(u.Children) == 0 {
		return nil, false
	}
	first := u.Children[0]
	if len(first.Schema) != len(g.Schema) {
		return nil, false
	}
	for i := range g.Schema {
		if first.Schema[i].ID != g.Schema[i].ID {
			return nil, false
		}
	}
	for _, b := range u.Children[1:] {
		if len(b.Schema) != len(g.Schema) {
			return nil, false
		}
	}
	return u.Children, true
}

// mergeAggFn returns the aggregate function that merges partial results of
// fn (COUNT partials merge by SUM; others are idempotent under re-merge).
func mergeAggFn(fn string) string {
	if fn == "COUNT" {
		return "SUM"
	}
	if fn == "AVG" {
		return "AVG" // modeled: exact AVG merge needs sum+count pairs
	}
	return fn
}

// equiKeys splits the equi-join key columns of pred by side: lk[i] of left
// is compared with rk[i] of right. Conjuncts that are not two-sided equi
// comparisons are ignored. The keys are carved from m.
func equiKeys(m *cascades.Memo, pred *plan.Expr, left, right []plan.Column) (lk, rk []plan.Column) {
	n := 0
	for _, c := range plan.Conjuncts(pred) {
		if _, _, ok := equiSides(c, left, right); ok {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	lk, rk = m.Columns(n), m.Columns(n)
	n = 0
	for _, c := range plan.Conjuncts(pred) {
		if a, b, ok := equiSides(c, left, right); ok {
			lk[n], rk[n] = a, b
			n++
		}
	}
	return lk, rk
}

// hasEquiKey reports whether pred has a two-sided equi conjunct between left
// and right.
func hasEquiKey(pred *plan.Expr, left, right []plan.Column) bool {
	for _, c := range plan.Conjuncts(pred) {
		if _, _, ok := equiSides(c, left, right); ok {
			return true
		}
	}
	return false
}

// equiSides returns the left and right column of c when c compares a column
// of left with a column of right for equality.
func equiSides(c *plan.Expr, left, right []plan.Column) (l, r plan.Column, ok bool) {
	a, b, ok := c.EquiJoinSides()
	switch {
	case !ok:
	case hasCol(left, a.ID) && hasCol(right, b.ID):
		return a, b, true
	case hasCol(left, b.ID) && hasCol(right, a.ID):
		return b, a, true
	}
	return plan.Column{}, plan.Column{}, false
}

// hasCol reports whether cols holds the column id.
func hasCol(cols []plan.Column, id plan.ColumnID) bool {
	for _, c := range cols {
		if c.ID == id {
			return true
		}
	}
	return false
}
