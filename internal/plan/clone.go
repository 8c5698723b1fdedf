package plan

// ClonePhys deep-copies a physical DAG's node structure, preserving internal
// sharing (a node consumed twice is cloned once). Payload slices and
// expressions are shared with the original — callers that mutate a clone may
// overwrite a node's scalar fields or re-slice its slices, but must not
// write through the shared backing arrays. The fault injector uses this to
// corrupt a copy of a compiled plan without touching the optimizer's result.
func ClonePhys(n *PhysNode) *PhysNode {
	cloned := make(map[*PhysNode]*PhysNode)
	var rec func(*PhysNode) *PhysNode
	rec = func(m *PhysNode) *PhysNode {
		if m == nil {
			return nil
		}
		if c, ok := cloned[m]; ok {
			return c
		}
		cp := *m
		cloned[m] = &cp
		cp.Children = make([]*PhysNode, len(m.Children))
		for i, ch := range m.Children {
			cp.Children[i] = rec(ch)
		}
		return &cp
	}
	return rec(n)
}

// CloneWithFreshIDs deep-copies a logical DAG, remapping every column ID to a
// fresh one obtained from nextID. Internal sharing within the subtree is
// preserved (a node consumed twice inside the subtree is cloned once).
//
// The binder uses this when a script variable is referenced more than once in
// relational position: sharing the node verbatim would make the two
// occurrences' columns indistinguishable inside a join, so later references
// get fresh column identities while keeping the identical structure (and
// therefore the identical template hash contribution).
func CloneWithFreshIDs(n *Node, nextID func() ColumnID) *Node {
	remap := make(map[ColumnID]ColumnID)
	cloned := make(map[*Node]*Node)
	var rec func(*Node) *Node
	mapCol := func(c Column) Column {
		id, ok := remap[c.ID]
		if !ok {
			id = nextID()
			remap[c.ID] = id
		}
		c.ID = id
		return c
	}
	var mapExpr func(e *Expr) *Expr
	mapExpr = func(e *Expr) *Expr {
		if e == nil {
			return nil
		}
		cp := *e
		if e.Kind == ExprColumn {
			cp.Col = mapCol(e.Col)
		}
		if len(e.Args) > 0 {
			cp.Args = make([]*Expr, len(e.Args))
			for i, a := range e.Args {
				cp.Args[i] = mapExpr(a)
			}
		}
		return &cp
	}
	mapCols := func(cols []Column) []Column {
		if cols == nil {
			return nil
		}
		out := make([]Column, len(cols))
		for i, c := range cols {
			out[i] = mapCol(c)
		}
		return out
	}
	rec = func(m *Node) *Node {
		if m == nil {
			return nil
		}
		if c, ok := cloned[m]; ok {
			return c
		}
		cp := &Node{
			Op:         m.Op,
			Table:      m.Table,
			Processor:  m.Processor,
			TopN:       m.TopN,
			OutputPath: m.OutputPath,
		}
		cloned[m] = cp
		cp.Children = make([]*Node, len(m.Children))
		for i, ch := range m.Children {
			cp.Children[i] = rec(ch)
		}
		cp.Schema = mapCols(m.Schema)
		cp.Pred = mapExpr(m.Pred)
		if m.Projs != nil {
			cp.Projs = make([]Projection, len(m.Projs))
			for i, p := range m.Projs {
				cp.Projs[i] = Projection{Expr: mapExpr(p.Expr), Out: mapCol(p.Out)}
			}
		}
		cp.GroupKeys = mapCols(m.GroupKeys)
		if m.Aggs != nil {
			cp.Aggs = make([]Agg, len(m.Aggs))
			for i, a := range m.Aggs {
				cp.Aggs[i] = Agg{Fn: a.Fn, Arg: mapExpr(a.Arg), Out: mapCol(a.Out)}
			}
		}
		cp.ReduceKeys = mapCols(m.ReduceKeys)
		if m.SortKeys != nil {
			cp.SortKeys = make([]SortKey, len(m.SortKeys))
			for i, k := range m.SortKeys {
				cp.SortKeys[i] = SortKey{Col: mapCol(k.Col), Desc: k.Desc}
			}
		}
		return cp
	}
	return rec(n)
}
