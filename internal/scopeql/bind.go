package scopeql

import (
	"fmt"
	"slices"
	"strconv"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// Bind resolves a parsed script against a catalog and returns the logical
// plan DAG of the job. Jobs with multiple OUTPUT statements get an OpMulti
// virtual root; jobs with a single output return the Output node itself.
func Bind(s *Script, cat *catalog.Catalog) (*plan.Node, error) {
	return new(scratch).bind(s, cat)
}

// Compile parses then binds, as Bind(Parse(src)) does, on a pooled scratch it
// hands back before returning: the plan is all it allocates once warm.
func Compile(src string, cat *catalog.Catalog) (*plan.Node, error) {
	sc := scratchPool.Get().(*scratch)
	root, err := sc.compile(src, cat)
	sc.release()
	scratchPool.Put(sc)
	return root, err
}

type boundVar struct {
	node *plan.Node
	uses int
}

type binder struct {
	cat    *catalog.Catalog
	sc     *scratch
	nextID plan.ColumnID
}

// bind binds s with sc's variable table and output list, building the plan
// from plan piles that planSize sized for it.
func (sc *scratch) bind(s *Script, cat *catalog.Catalog) (*plan.Node, error) {
	if sc.vars == nil {
		sc.vars = make(map[string]*boundVar)
		sc.widths = make(map[string]int)
	}
	sc.startPlan(sizePlan(s, cat, sc.widths))
	b := binder{cat: cat, sc: sc}
	return b.bindScript(s)
}

func (b *binder) newID() plan.ColumnID {
	b.nextID++
	return b.nextID
}

func (b *binder) bindScript(s *Script) (*plan.Node, error) {
	sc := b.sc
	for _, st := range s.Stmts {
		switch st := st.(type) {
		case *AssignStmt:
			if _, dup := sc.vars[st.Name]; dup {
				return nil, errf(st.Pos, "variable %q reassigned", st.Name)
			}
			n, err := b.bindRel(st.Rel)
			if err != nil {
				return nil, err
			}
			sc.vars[st.Name] = sc.bound.add(boundVar{node: n})
		case *OutputStmt:
			v, ok := sc.vars[st.Name]
			if !ok {
				return nil, errf(st.Pos, "output of unbound variable %q", st.Name)
			}
			// Outputs share the bound node directly: two outputs of one
			// intermediate form a DAG, and their schemas never merge.
			out := b.unary(plan.OpOutput, v.node)
			out.OutputPath = st.Path
			sc.outs = append(sc.outs, out)
		}
	}
	switch len(sc.outs) {
	case 0:
		return nil, errf(Pos{1, 1}, "script has no OUTPUT statement")
	case 1:
		return sc.outs[0], nil
	}
	return b.node(plan.OpMulti, sc.kids.keep(sc.outs), nil), nil
}

// useVar returns the node bound to a variable. The first relational use
// shares the node (preserving the job's DAG shape); later uses are cloned
// with fresh column IDs so self-joins and self-unions keep distinct column
// identities.
func (b *binder) useVar(name string, pos Pos) (*plan.Node, error) {
	v, ok := b.sc.vars[name]
	if !ok {
		return nil, errf(pos, "reference to unbound variable %q", name)
	}
	v.uses++
	if v.uses == 1 {
		return v.node, nil
	}
	return plan.CloneWithFreshIDs(v.node, b.newID), nil
}

func (b *binder) bindRel(r RelExpr) (*plan.Node, error) {
	switch r := r.(type) {
	case *VarRef:
		return b.useVar(r.Name, r.Pos)
	case *ExtractExpr:
		return b.bindExtract(r)
	case *SelectExpr:
		return b.bindSelect(r)
	case *UnionExpr:
		return b.bindUnion(r)
	case *ProcessExpr:
		return b.bindProcess(r)
	case *ReduceExpr:
		return b.bindReduce(r)
	}
	return nil, fmt.Errorf("scopeql: unknown relational expression %T", r)
}

func (b *binder) bindExtract(e *ExtractExpr) (*plan.Node, error) {
	st := b.cat.Stream(e.Stream)
	if st == nil {
		return nil, errf(e.Pos, "unknown input stream %q", e.Stream)
	}
	schema := b.sc.columns.take(len(e.Columns))
	for k, name := range e.Columns {
		i := st.ColumnIndex(name)
		if i < 0 {
			return nil, errf(e.Pos, "stream %q has no column %q", e.Stream, name)
		}
		schema[k] = plan.Column{ID: b.newID(), Name: name, Source: st.ColumnSource(i)}
	}
	n := b.node(plan.OpGet, nil, schema)
	n.Table = e.Stream
	return n, nil
}

// bindStream binds a direct stream reference in FROM position, extracting
// all columns.
func (b *binder) bindStream(name string, pos Pos) (*plan.Node, error) {
	st := b.cat.Stream(name)
	if st == nil {
		return nil, errf(pos, "unknown input stream %q", name)
	}
	schema := b.sc.columns.take(len(st.Columns))
	for i, col := range st.Columns {
		schema[i] = plan.Column{ID: b.newID(), Name: col.Name, Source: st.ColumnSource(i)}
	}
	n := b.node(plan.OpGet, nil, schema)
	n.Table = name
	return n, nil
}

func (b *binder) bindUnion(u *UnionExpr) (*plan.Node, error) {
	children := b.sc.kids.take(len(u.Terms))
	for i, t := range u.Terms {
		n, err := b.bindRel(t)
		if err != nil {
			return nil, err
		}
		children[i] = n
	}
	arity := len(children[0].Schema)
	for i, c := range children[1:] {
		if len(c.Schema) != arity {
			return nil, errf(u.Pos, "UNION ALL branch %d has %d columns, want %d", i+2, len(c.Schema), arity)
		}
	}
	return b.node(plan.OpUnionAll, children, children[0].Schema), nil
}

func (b *binder) bindProcess(e *ProcessExpr) (*plan.Node, error) {
	if b.cat.UDO(e.UDO) == nil {
		return nil, errf(e.Pos, "unknown processor %q", e.UDO)
	}
	child, err := b.bindRel(e.Source)
	if err != nil {
		return nil, err
	}
	n := b.unary(plan.OpProcess, child)
	n.Processor = e.UDO
	return n, nil
}

func (b *binder) bindReduce(e *ReduceExpr) (*plan.Node, error) {
	if b.cat.UDO(e.UDO) == nil {
		return nil, errf(e.Pos, "unknown reducer %q", e.UDO)
	}
	child, err := b.bindRel(e.Source)
	if err != nil {
		return nil, err
	}
	env := scope{{alias: "", node: child}}
	keys := b.sc.columns.take(len(e.Keys))
	for i, k := range e.Keys {
		col, err := env.resolve(k)
		if err != nil {
			return nil, err
		}
		keys[i] = col
	}
	n := b.unary(plan.OpReduce, child)
	n.ReduceKeys, n.Processor = keys, e.UDO
	return n, nil
}

// scope is the name-resolution environment of one SELECT: the FROM and JOIN
// sources with their aliases.
type scope []scopeEntry

type scopeEntry struct {
	alias string
	node  *plan.Node
}

func (s scope) resolve(c ColName) (plan.Column, error) {
	var (
		found plan.Column
		n     int
	)
	for _, e := range s {
		if c.Qualifier != "" && c.Qualifier != e.alias {
			continue
		}
		for _, col := range e.node.Schema {
			if col.Name == c.Name {
				found = col
				n++
			}
		}
	}
	switch n {
	case 0:
		return plan.Column{}, errf(c.Pos, "unknown column %q", c.String())
	case 1:
		return found, nil
	}
	return plan.Column{}, errf(c.Pos, "ambiguous column %q (qualify it)", c.String())
}

func (b *binder) bindTableRef(r TableRef) (scopeEntry, error) {
	var (
		n   *plan.Node
		err error
	)
	switch {
	case r.Var != "":
		n, err = b.useVar(r.Var, r.Pos)
	case r.Stream != "":
		n, err = b.bindStream(r.Stream, r.Pos)
	default:
		n, err = b.bindRel(r.Sub)
	}
	if err != nil {
		return scopeEntry{}, err
	}
	alias := r.Alias
	if alias == "" {
		alias = r.Var // stream/sub sources without alias are unqualified
	}
	return scopeEntry{alias: alias, node: n}, nil
}

func (b *binder) bindSelect(sel *SelectExpr) (*plan.Node, error) {
	fromEntry, err := b.bindTableRef(sel.From)
	if err != nil {
		return nil, err
	}
	var envBuf [4]scopeEntry // a SELECT's sources, on the stack unless it joins more
	env := append(scope(envBuf[:0]), fromEntry)
	cur := fromEntry.node

	// Joins: left-deep over the FROM chain. The optimizer's join-order
	// rules explore alternatives later.
	for _, j := range sel.Joins {
		rightEntry, err := b.bindTableRef(j.Right)
		if err != nil {
			return nil, err
		}
		env = append(env, rightEntry)
		on, err := b.bindScalar(j.On, env)
		if err != nil {
			return nil, err
		}
		schema := b.sc.columns.take(len(cur.Schema) + len(rightEntry.node.Schema))
		copy(schema[copy(schema, cur.Schema):], rightEntry.node.Schema)
		cur = b.node(plan.OpJoin, b.sc.kids.keep([]*plan.Node{cur, rightEntry.node}), schema)
		cur.Pred = on
	}

	if sel.Where != nil {
		pred, err := b.bindScalar(sel.Where, env)
		if err != nil {
			return nil, err
		}
		cur = b.unary(plan.OpSelect, cur)
		cur.Pred = pred
	}

	grouped := len(sel.GroupBy) > 0 || hasAggregate(sel)
	if grouped {
		return b.bindGrouped(sel, cur, env)
	}

	if !sel.Star {
		projs := b.sc.projs.take(len(sel.Items))
		for i, item := range sel.Items {
			p, err := b.bindProjection(item, env)
			if err != nil {
				return nil, err
			}
			projs[i] = p
		}
		cur = b.project(cur, projs)
	}
	return b.applyTop(sel, cur)
}

func hasAggregate(sel *SelectExpr) bool {
	for _, item := range sel.Items {
		if _, ok := item.Expr.(*CallExpr); ok {
			return true
		}
	}
	return false
}

func (b *binder) bindGrouped(sel *SelectExpr, child *plan.Node, env scope) (*plan.Node, error) {
	if sel.Star {
		return nil, errf(sel.Pos, "SELECT * cannot be combined with GROUP BY or aggregates")
	}
	keys := b.sc.columns.take(len(sel.GroupBy))
	for i, k := range sel.GroupBy {
		col, err := env.resolve(k)
		if err != nil {
			return nil, err
		}
		keys[i] = col
	}

	nAggs := 0
	for _, item := range sel.Items {
		if _, ok := item.Expr.(*CallExpr); ok {
			nAggs++
		}
	}
	var aggs []plan.Agg // nil without aggregates, as plan.NewGroupBy gets it
	if nAggs > 0 {
		aggs = b.sc.aggs.take(nAggs)[:0]
	}
	projs := b.sc.projs.take(len(sel.Items))[:0]
	for _, item := range sel.Items {
		switch e := item.Expr.(type) {
		case *CallExpr:
			var arg *plan.Expr
			if !e.Star {
				a, err := b.bindScalar(e.Args[0], env)
				if err != nil {
					return nil, err
				}
				arg = a
			}
			name := item.Alias
			if name == "" {
				name = e.Fn + "_" + strconv.Itoa(len(aggs)+1)
			}
			out := plan.Column{ID: b.newID(), Name: name}
			aggs = append(aggs, plan.Agg{Fn: e.Fn, Arg: arg, Out: out})
			projs = append(projs, plan.Projection{Expr: b.colExpr(out), Out: out})
		case *ColName:
			col, err := env.resolve(*e)
			if err != nil {
				return nil, err
			}
			if !slices.ContainsFunc(keys, func(k plan.Column) bool { return k.ID == col.ID }) {
				return nil, errf(e.Pos, "column %q must appear in GROUP BY or inside an aggregate", e.String())
			}
			out := col
			if item.Alias != "" {
				out.Name = item.Alias
			}
			projs = append(projs, plan.Projection{Expr: b.colExpr(col), Out: out})
		default:
			return nil, errf(sel.Pos, "grouped SELECT items must be group keys or aggregates")
		}
	}

	schema := b.sc.columns.take(len(keys) + len(aggs))
	copy(schema, keys)
	for i, a := range aggs {
		schema[len(keys)+i] = a.Out
	}
	cur := b.node(plan.OpGroupBy, b.sc.kids.keep([]*plan.Node{child}), schema)
	cur.GroupKeys, cur.Aggs = keys, aggs

	if sel.Having != nil {
		henv := scope{{alias: "", node: cur}}
		pred, err := b.bindScalar(sel.Having, henv)
		if err != nil {
			return nil, err
		}
		cur = b.unary(plan.OpSelect, cur)
		cur.Pred = pred
	}
	cur = b.project(cur, projs)
	return b.applyTop(sel, cur)
}

func (b *binder) applyTop(sel *SelectExpr, cur *plan.Node) (*plan.Node, error) {
	if len(sel.OrderBy) > 0 && sel.Top == 0 {
		return nil, errf(sel.Pos, "ORDER BY requires TOP in this dialect")
	}
	if sel.Top > 0 {
		env := scope{{alias: "", node: cur}}
		keys := b.sc.sortKeys.take(max(len(sel.OrderBy), 1))
		for i, ok := range sel.OrderBy {
			col, err := env.resolve(ok.Col)
			if err != nil {
				return nil, err
			}
			keys[i] = plan.SortKey{Col: col, Desc: ok.Desc}
		}
		if len(sel.OrderBy) == 0 {
			// TOP without ORDER BY: sort on first column for determinism.
			keys[0] = plan.SortKey{Col: cur.Schema[0]}
		}
		cur = b.unary(plan.OpTop, cur)
		cur.TopN, cur.SortKeys = sel.Top, keys
	}
	return cur, nil
}

func (b *binder) bindProjection(item SelectItem, env scope) (plan.Projection, error) {
	e, err := b.bindScalar(item.Expr, env)
	if err != nil {
		return plan.Projection{}, err
	}
	name := item.Alias
	if name == "" {
		if e.Kind == plan.ExprColumn {
			name = e.Col.Name
		} else {
			name = "expr_" + strconv.Itoa(int(b.nextID)+1)
		}
	}
	var out plan.Column
	if e.Kind == plan.ExprColumn {
		// Pass-through column: preserve identity and lineage.
		out = e.Col
		out.Name = name
	} else {
		out = plan.Column{ID: b.newID(), Name: name}
	}
	return plan.Projection{Expr: e, Out: out}, nil
}

func (b *binder) bindScalar(e ScalarExpr, env scope) (*plan.Expr, error) {
	switch e := e.(type) {
	case *ColName:
		col, err := env.resolve(*e)
		if err != nil {
			return nil, err
		}
		return b.colExpr(col), nil
	case *NumLit:
		c := b.expr(plan.ExprConst, nil)
		c.Lit.F = e.Value
		return c, nil
	case *StrLit:
		c := b.expr(plan.ExprConst, nil)
		c.Lit.IsString, c.Lit.S = true, e.Value
		return c, nil
	case *BinExpr:
		l, err := b.bindScalar(e.L, env)
		if err != nil {
			return nil, err
		}
		r, err := b.bindScalar(e.R, env)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "AND":
			return b.flatten(plan.ExprAnd, l, r), nil
		case "OR":
			return b.flatten(plan.ExprOr, l, r), nil
		}
		// The operator whose text (plan.CmpOp.String) e.Op is.
		op := plan.OpEQ
		for op <= plan.OpDiv && op.String() != e.Op {
			op++
		}
		if op > plan.OpDiv {
			return nil, errf(e.Pos, "unsupported operator %q", e.Op)
		}
		kind := plan.ExprCmp
		if op >= plan.OpAdd {
			kind = plan.ExprArith
		}
		x := b.expr(kind, b.sc.args.keep([]*plan.Expr{l, r}))
		x.Op = op
		return x, nil
	case *CallExpr:
		return nil, errf(e.Pos, "aggregate %s outside grouped SELECT", e.Fn)
	}
	return nil, fmt.Errorf("scopeql: unknown scalar expression %T", e)
}

// The binder builds the plan it returns from the scratch's plan piles, which
// Compile starts afresh for every script and never rewinds: the plan owns
// them, a few backing arrays per script instead of one allocation per node,
// expression, child list and schema. Each of those is still its own
// capacity-clipped slice or element, built as the plan package's
// constructors build it (TestBinderBuildsAsPlanConstructors).

// node returns a fresh node; the caller sets its payload. Nodes and
// expressions are filled in place, not copied in.
func (b *binder) node(op plan.Op, children []*plan.Node, schema []plan.Column) *plan.Node {
	n := &b.sc.nodes.take(1)[0]
	n.Op, n.Children, n.Schema = op, children, schema
	return n
}

// unary returns a node over child with child's schema, as plan.NewSelect,
// NewProcess, NewReduce, NewTop and NewOutput build it.
func (b *binder) unary(op plan.Op, child *plan.Node) *plan.Node {
	return b.node(op, b.sc.kids.keep([]*plan.Node{child}), child.Schema)
}

// project is plan.NewProject.
func (b *binder) project(child *plan.Node, projs []plan.Projection) *plan.Node {
	schema := b.sc.columns.take(len(projs))
	for i, p := range projs {
		schema[i] = p.Out
	}
	n := b.node(plan.OpProject, b.sc.kids.keep([]*plan.Node{child}), schema)
	n.Projs = projs
	return n
}

// expr returns a fresh expression; the caller sets its payload.
func (b *binder) expr(kind plan.ExprKind, args []*plan.Expr) *plan.Expr {
	e := &b.sc.exprs.take(1)[0]
	e.Kind, e.Args = kind, args
	return e
}

// colExpr is plan.ColExpr.
func (b *binder) colExpr(c plan.Column) *plan.Expr {
	e := b.expr(plan.ExprColumn, nil)
	e.Col = c
	return e
}

// flatten is plan.And (kind ExprAnd) or plan.Or (ExprOr) of two predicates:
// an operand of the same kind contributes its arguments.
func (b *binder) flatten(kind plan.ExprKind, l, r *plan.Expr) *plan.Expr {
	n := 0
	for _, p := range [2]*plan.Expr{l, r} {
		if p.Kind == kind {
			n += len(p.Args)
		} else {
			n++
		}
	}
	args := b.sc.args.take(n)[:0]
	for _, p := range [2]*plan.Expr{l, r} {
		if p.Kind == kind {
			args = append(args, p.Args...)
		} else {
			args = append(args, p)
		}
	}
	return b.expr(kind, args)
}
