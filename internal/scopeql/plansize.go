package scopeql

import "steerq/internal/catalog"

// planSize is how many elements the binder carves from each plan pile for
// one script, so that each pile takes one array of exactly that size
// (TestPlanSizeIsExact, and every FuzzCompile input).
type planSize struct {
	nodes, exprs, columns, kids, args, projs, aggs, sortKeys int
}

// sizePlan counts what binding s against cat carves, walking the AST as the
// binder does. widths is an empty map it files each variable's schema width
// in. A variable's second use is cloned by plan.CloneWithFreshIDs, outside
// the piles, and a script that fails to bind may be miscounted: the count
// only sizes arrays.
func sizePlan(s *Script, cat *catalog.Catalog, widths map[string]int) planSize {
	w := sizer{cat: cat, widths: widths}
	outputs := 0
	for _, st := range s.Stmts {
		switch st := st.(type) {
		case *AssignStmt:
			widths[st.Name] = w.rel(st.Rel)
		case *OutputStmt:
			w.unary()
			outputs++
		}
	}
	if outputs > 1 {
		w.n.nodes++
		w.n.kids += outputs
	}
	return w.n
}

type sizer struct {
	n      planSize
	cat    *catalog.Catalog
	widths map[string]int
}

// unary counts a node over one child with the child's schema.
func (w *sizer) unary() {
	w.n.nodes++
	w.n.kids++
}

// get counts a Get of width columns and returns its width.
func (w *sizer) get(width int) int {
	w.n.nodes++
	w.n.columns += width
	return width
}

// rel counts r and returns its schema width.
func (w *sizer) rel(r RelExpr) int {
	switch r := r.(type) {
	case *VarRef:
		return w.widths[r.Name]
	case *ExtractExpr:
		return w.get(len(r.Columns))
	case *SelectExpr:
		return w.selectExpr(r)
	case *UnionExpr:
		w.n.nodes++
		w.n.kids += len(r.Terms)
		width := w.rel(r.Terms[0])
		for _, t := range r.Terms[1:] {
			w.rel(t)
		}
		return width
	case *ProcessExpr:
		w.unary()
		return w.rel(r.Source)
	case *ReduceExpr:
		w.unary()
		w.n.columns += len(r.Keys)
		return w.rel(r.Source)
	}
	return 0
}

func (w *sizer) tableRef(r TableRef) int {
	switch {
	case r.Var != "":
		return w.widths[r.Var]
	case r.Stream != "":
		if st := w.cat.Stream(r.Stream); st != nil {
			return w.get(len(st.Columns))
		}
		return 0
	}
	return w.rel(r.Sub)
}

func (w *sizer) selectExpr(sel *SelectExpr) int {
	width := w.tableRef(sel.From)
	for _, j := range sel.Joins {
		width += w.tableRef(j.Right)
		w.n.nodes++
		w.n.kids += 2
		w.n.columns += width
		w.scalar(j.On)
	}
	if sel.Where != nil {
		w.unary()
		w.scalar(sel.Where)
	}
	switch {
	case len(sel.GroupBy) > 0 || hasAggregate(sel):
		w.unary() // GroupBy: its keys, and its schema of keys and aggregates
		aggs := 0
		for _, item := range sel.Items {
			if call, ok := item.Expr.(*CallExpr); ok {
				aggs++
				if !call.Star {
					w.scalar(call.Args[0])
				}
			}
			w.n.exprs++ // the projection's column
		}
		w.n.aggs += aggs
		w.n.columns += 2*len(sel.GroupBy) + aggs
		if sel.Having != nil {
			w.unary()
			w.scalar(sel.Having)
		}
		width = w.project(len(sel.Items))
	case !sel.Star:
		for _, item := range sel.Items {
			w.scalar(item.Expr)
		}
		width = w.project(len(sel.Items))
	}
	if sel.Top > 0 {
		w.unary()
		w.n.sortKeys += max(len(sel.OrderBy), 1)
	}
	return width
}

// project counts a Project of n projections and returns its width.
func (w *sizer) project(n int) int {
	w.unary()
	w.n.projs += n
	w.n.columns += n
	return n
}

// scalar counts e's expressions and arguments, and returns e's operator and
// its argument count when e is an AND or an OR: plan.And and plan.Or flatten
// an operand of their own kind, so its parent counts its arguments.
func (w *sizer) scalar(e ScalarExpr) (op string, args int) {
	switch e := e.(type) {
	case *BinExpr:
		lop, largs := w.scalar(e.L)
		rop, rargs := w.scalar(e.R)
		w.n.exprs++
		if e.Op != "AND" && e.Op != "OR" {
			w.n.args += 2
			return e.Op, 2
		}
		if lop != e.Op {
			largs = 1
		}
		if rop != e.Op {
			rargs = 1
		}
		w.n.args += largs + rargs
		return e.Op, largs + rargs
	case *ColName, *NumLit, *StrLit:
		w.n.exprs++
	}
	return "", 0
}
