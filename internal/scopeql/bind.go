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
	a      plan.Alloc // sc's plan piles
	nextID plan.ColumnID
}

// bind binds s with sc's variable table and output list, building the plan
// from plan piles that planSize sized for it. Every node and expression is
// built by a plan constructor; the binder carves only the payload lists it
// hands them (schemas of Gets, key, projection, aggregate, sort-key and
// UNION ALL child lists, and a multi-output root's output list).
func (sc *scratch) bind(s *Script, cat *catalog.Catalog) (*plan.Node, error) {
	if sc.vars == nil {
		sc.vars = make(map[string]*boundVar)
		sc.widths = make(map[string]int)
	}
	sc.start(sizePlan(s, cat, sc.widths))
	b := binder{cat: cat, sc: sc, a: &sc.planPiles}
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
			sc.outs = append(sc.outs, plan.NewOutput(b.a, v.node, st.Path))
		}
	}
	switch len(sc.outs) {
	case 0:
		return nil, errf(Pos{1, 1}, "script has no OUTPUT statement")
	case 1:
		return sc.outs[0], nil
	}
	return plan.NewMulti(b.a, sc.kids.keep(sc.outs)...), nil
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
	return plan.NewGet(b.a, e.Stream, schema), nil
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
	return plan.NewGet(b.a, name, schema), nil
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
	return plan.NewUnionAll(b.a, children...), nil
}

func (b *binder) bindProcess(e *ProcessExpr) (*plan.Node, error) {
	if b.cat.UDO(e.UDO) == nil {
		return nil, errf(e.Pos, "unknown processor %q", e.UDO)
	}
	child, err := b.bindRel(e.Source)
	if err != nil {
		return nil, err
	}
	return plan.NewProcess(b.a, child, e.UDO), nil
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
	return plan.NewReduce(b.a, child, keys, e.UDO), nil
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
		cur = plan.NewJoin(b.a, cur, rightEntry.node, on)
	}

	if sel.Where != nil {
		pred, err := b.bindScalar(sel.Where, env)
		if err != nil {
			return nil, err
		}
		cur = plan.NewSelect(b.a, cur, pred)
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
		cur = plan.NewProject(b.a, cur, projs)
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
	var aggs []plan.Agg // nil without aggregates
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
			projs = append(projs, plan.Projection{Expr: plan.ColExpr(b.a, out), Out: out})
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
			projs = append(projs, plan.Projection{Expr: plan.ColExpr(b.a, col), Out: out})
		default:
			return nil, errf(sel.Pos, "grouped SELECT items must be group keys or aggregates")
		}
	}

	cur := plan.NewGroupBy(b.a, child, keys, aggs)

	if sel.Having != nil {
		henv := scope{{alias: "", node: cur}}
		pred, err := b.bindScalar(sel.Having, henv)
		if err != nil {
			return nil, err
		}
		cur = plan.NewSelect(b.a, cur, pred)
	}
	cur = plan.NewProject(b.a, cur, projs)
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
		cur = plan.NewTop(b.a, cur, sel.Top, keys)
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
		return plan.ColExpr(b.a, col), nil
	case *NumLit:
		return plan.NumExpr(b.a, e.Value), nil
	case *StrLit:
		return plan.StrExpr(b.a, e.Value), nil
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
			return plan.And(b.a, l, r), nil
		case "OR":
			return plan.Or(b.a, l, r), nil
		}
		// The operator whose text (plan.CmpOp.String) e.Op is.
		op := plan.OpEQ
		for op <= plan.OpDiv && op.String() != e.Op {
			op++
		}
		if op > plan.OpDiv {
			return nil, errf(e.Pos, "unsupported operator %q", e.Op)
		}
		return plan.Cmp(b.a, op, l, r), nil
	case *CallExpr:
		return nil, errf(e.Pos, "aggregate %s outside grouped SELECT", e.Fn)
	}
	return nil, fmt.Errorf("scopeql: unknown scalar expression %T", e)
}
