package workload

import (
	"fmt"
	"strconv"
	"strings"

	"steerq/internal/xrand"
)

// fnum renders a float as a plain decimal literal the dialect's lexer
// accepts (no exponent form).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// shapeBuilder freezes the structure of one template of the given shape and
// returns its per-instance script renderer.
func (g *generator) shapeBuilder(shape string, r *xrand.Source) func(*xrand.Source) string {
	switch shape {
	case "cookRaw":
		return g.cookRaw(r)
	case "joinAgg":
		return g.joinAgg(r)
	case "multiJoin":
		return g.multiJoin(r)
	case "unionCook":
		return g.unionCook(r)
	case "reduceJob":
		return g.reduceJob(r)
	case "topDash":
		return g.topDash(r)
	case "multiOut":
		return g.multiOut(r)
	case "unionProcess":
		return g.unionProcess(r)
	}
	return g.cookRaw(r)
}

func (g *generator) pickFact(r *xrand.Source) factMeta {
	return g.facts[r.Intn(len(g.facts))]
}

func (g *generator) pickUDO(r *xrand.Source) string {
	return g.udos[r.Intn(len(g.udos))]
}

func outPath(r *xrand.Source, wl, shape string) string {
	return fmt.Sprintf("out/%s/%s_%06d", wl, shape, r.Intn(1e6))
}

// cookRaw: filter a raw fact stream, optionally cook it with a UDO.
func (g *generator) cookRaw(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	key := f.keys[r.Intn(len(f.keys))].name
	m := f.measures[r.Intn(len(f.measures))]
	cols := strings.Join([]string{key, m, f.filters[0]}, ", ")
	preds := g.predsFor(r, f, 1+r.Intn(3))
	useUDO := r.Bool(0.7)
	udo := g.pickUDO(r)
	computed := r.Bool(0.4)
	out := outPath(r, g.profile.Name, "cook")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "src = SELECT %s FROM \"%s\" WHERE %s;\n", cols, f.name, renderPreds(ir, preds))
		last := "src"
		if computed {
			fmt.Fprintf(&b, "proj = SELECT %s, %s * %s AS scaled FROM src;\n", key, m, fnum(1+ir.Float64()))
			last = "proj"
		}
		if useUDO {
			fmt.Fprintf(&b, "cooked = PROCESS %s USING %s;\n", last, udo)
			last = "cooked"
		}
		fmt.Fprintf(&b, "OUTPUT %s TO \"%s\";\n", last, out)
		return b.String()
	}
}

// joinAgg: filter a fact, join a dimension, aggregate. Two frozen variants:
// grouping by the dimension attribute, or grouping by the fact-side join key
// with the dimension as an enrichment filter — the latter is the pattern the
// off-by-default GroupbyOnJoin (eager aggregation) rule targets.
func (g *generator) joinAgg(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	d, key, ok := g.dimFor(r, f)
	if !ok {
		return g.cookRaw(r)
	}
	m := f.measures[r.Intn(len(f.measures))]
	attr := d.attrs[r.Intn(len(d.attrs))]
	preds := g.predsFor(r, f, 1+r.Intn(3))
	byKey := r.Bool(0.5)
	out := outPath(r, g.profile.Name, "joinagg")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s;\n", key.name, m, f.name, renderPreds(ir, preds))
		fmt.Fprintf(&b, "j = SELECT f.%s AS %s, d.%s AS %s, f.%s AS %s FROM f INNER JOIN \"%s\" AS d ON f.%s == d.%s;\n",
			key.name, key.name, attr, attr, m, m, d.name, key.name, key.name)
		if byKey {
			fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM j GROUP BY %s;\n", key.name, m, key.name)
		} else {
			fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM j GROUP BY %s;\n", attr, m, attr)
		}
		fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out)
		return b.String()
	}
}

// multiJoin: fact joined with two dimensions, or a dimension plus a second
// fact, then aggregated.
func (g *generator) multiJoin(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	if len(f.keys) < 2 {
		return g.joinAgg(r)
	}
	d1, key1, ok := g.dimFor(r, f)
	if !ok {
		return g.cookRaw(r)
	}
	// Second key distinct from the first.
	var key2 keyDomain
	for _, k := range f.keys {
		if k.name != key1.name {
			key2 = k
			break
		}
	}
	if key2.name == "" {
		return g.joinAgg(r)
	}
	m := f.measures[r.Intn(len(f.measures))]
	a1 := d1.attrs[r.Intn(len(d1.attrs))]
	preds := g.predsFor(r, f, 1+r.Intn(3))
	out := outPath(r, g.profile.Name, "multijoin")

	// Prefer a second dimension on key2; fall back to a fact-fact join.
	var d2 dimMeta
	haveD2 := false
	for _, d := range g.dims {
		if d.key.name == key2.name && d.name != d1.name {
			d2 = d
			haveD2 = true
			break
		}
	}
	if haveD2 {
		a2 := d2.attrs[r.Intn(len(d2.attrs))]
		return func(ir *xrand.Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "f = SELECT %s, %s, %s FROM \"%s\" WHERE %s;\n", key1.name, key2.name, m, f.name, renderPreds(ir, preds))
			fmt.Fprintf(&b, "j1 = SELECT f.%s AS %s, f.%s AS %s, f.%s AS %s, d1.%s AS attr1 FROM f INNER JOIN \"%s\" AS d1 ON f.%s == d1.%s;\n",
				key1.name, key1.name, key2.name, key2.name, m, m, a1, d1.name, key1.name, key1.name)
			fmt.Fprintf(&b, "j2 = SELECT j1.%s AS %s, j1.attr1 AS attr1, d2.%s AS attr2 FROM j1 INNER JOIN \"%s\" AS d2 ON j1.%s == d2.%s;\n",
				m, m, a2, d2.name, key2.name, key2.name)
			fmt.Fprintf(&b, "a = SELECT attr1, attr2, SUM(%s) AS total, COUNT(*) AS cnt FROM j2 GROUP BY attr1, attr2;\n", m)
			fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out)
			return b.String()
		}
	}
	// Fact-fact join on the shared second key.
	partners := g.factsSharingKey(r, f, key2, 2)
	if len(partners) < 2 {
		return g.joinAgg(r)
	}
	f2 := partners[1]
	m2 := f2.measures[r.Intn(len(f2.measures))]
	preds2 := g.predsFor(r, f2, 1+r.Intn(2))
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "f = SELECT %s, %s, %s FROM \"%s\" WHERE %s;\n", key1.name, key2.name, m, f.name, renderPreds(ir, preds))
		fmt.Fprintf(&b, "j1 = SELECT f.%s AS %s, f.%s AS %s, f.%s AS %s, d1.%s AS %s FROM f INNER JOIN \"%s\" AS d1 ON f.%s == d1.%s;\n",
			key1.name, key1.name, key2.name, key2.name, m, m, a1, a1, d1.name, key1.name, key1.name)
		fmt.Fprintf(&b, "f2 = SELECT %s, %s FROM \"%s\" WHERE %s;\n", key2.name, m2, f2.name, renderPreds(ir, preds2))
		fmt.Fprintf(&b, "j2 = SELECT j1.%s AS %s, j1.%s AS %s, f2.%s AS other FROM j1 INNER JOIN f2 ON j1.%s == f2.%s;\n",
			a1, a1, m, m, m2, key2.name, key2.name)
		fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, SUM(other) AS total2 FROM j2 GROUP BY %s;\n", a1, m, a1)
		fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out)
		return b.String()
	}
}

// unionCook: union several filtered facts sharing a key, then either join a
// dimension and aggregate, or aggregate directly on the key. Exercises the
// union-all rule families (GroupbyBelowUnionAll, CorrelatedJoinOnUnionAll,
// UnionAllToVirtualDataset vs UnionAllToUnionAll).
func (g *generator) unionCook(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	key := f.keys[r.Intn(len(f.keys))]
	branches := g.factsSharingKey(r, f, key, 2+r.Intn(3))
	if len(branches) < 2 {
		return g.joinAgg(r)
	}
	type branchSpec struct {
		fact  factMeta
		m     string
		preds []predSpec
	}
	specs := make([]branchSpec, len(branches))
	for i, bf := range branches {
		specs[i] = branchSpec{
			fact:  bf,
			m:     bf.measures[r.Intn(len(bf.measures))],
			preds: g.predsFor(r, bf, 1+r.Intn(2)),
		}
	}
	d, _, haveDim := g.dimFor(r, f)
	useDim := haveDim && r.Bool(0.6)
	var attr string
	if useDim {
		attr = d.attrs[r.Intn(len(d.attrs))]
		if d.key.name != key.name {
			useDim = false
		}
	}
	// A third frozen variant takes a top-N directly over the union — the
	// pattern the off-by-default TopOnUnionAll rule targets.
	useTop := !useDim && r.Bool(0.4)
	topN := 10 * (1 + r.Intn(30))
	mName := specs[0].m // union output takes branch-1 names
	out := outPath(r, g.profile.Name, "unioncook")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = fmt.Sprintf("b%d", i+1)
			fmt.Fprintf(&b, "%s = SELECT %s, %s FROM \"%s\" WHERE %s;\n",
				names[i], key.name, s.m, s.fact.name, renderPreds(ir, s.preds))
		}
		fmt.Fprintf(&b, "u = %s;\n", strings.Join(names, " UNION ALL "))
		switch {
		case useDim:
			fmt.Fprintf(&b, "j = SELECT u.%s AS %s, d.%s AS %s, u.%s AS %s FROM u INNER JOIN \"%s\" AS d ON u.%s == d.%s;\n",
				key.name, key.name, attr, attr, mName, mName, d.name, key.name, key.name)
			fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM j GROUP BY %s;\n", attr, mName, attr)
		case useTop:
			fmt.Fprintf(&b, "a = SELECT TOP %d %s, %s FROM u ORDER BY %s DESC;\n", topN, key.name, mName, mName)
		default:
			fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM u GROUP BY %s;\n", key.name, mName, key.name)
		}
		fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out)
		return b.String()
	}
}

// reduceJob: filter then apply a user-defined reducer per key group.
func (g *generator) reduceJob(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	key := f.keys[r.Intn(len(f.keys))].name
	m0 := f.measures[0]
	preds := g.predsFor(r, f, 1+r.Intn(2))
	udo := g.pickUDO(r)
	out := outPath(r, g.profile.Name, "reduce")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s;\n", key, m0, f.name, renderPreds(ir, preds))
		fmt.Fprintf(&b, "rj = REDUCE f ON %s USING %s;\n", key, udo)
		fmt.Fprintf(&b, "OUTPUT rj TO \"%s\";\n", out)
		return b.String()
	}
}

// topDash: join + aggregate + top-N, the dashboard-population pattern.
func (g *generator) topDash(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	d, key, ok := g.dimFor(r, f)
	if !ok {
		return g.cookRaw(r)
	}
	m := f.measures[r.Intn(len(f.measures))]
	attr := d.attrs[r.Intn(len(d.attrs))]
	preds := g.predsFor(r, f, 1+r.Intn(3))
	topN := 10 * (1 + r.Intn(50))
	out := outPath(r, g.profile.Name, "topdash")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s;\n", key.name, m, f.name, renderPreds(ir, preds))
		fmt.Fprintf(&b, "j = SELECT f.%s AS %s, d.%s AS %s, f.%s AS %s FROM f INNER JOIN \"%s\" AS d ON f.%s == d.%s;\n",
			key.name, key.name, attr, attr, m, m, d.name, key.name, key.name)
		fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total FROM j GROUP BY %s;\n", attr, m, attr)
		fmt.Fprintf(&b, "t = SELECT TOP %d %s, total FROM a ORDER BY total DESC;\n", topN, attr)
		fmt.Fprintf(&b, "OUTPUT t TO \"%s\";\n", out)
		return b.String()
	}
}

// multiOut: one cooked intermediate written raw and aggregated — a DAG job
// with two outputs.
func (g *generator) multiOut(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	key := f.keys[r.Intn(len(f.keys))].name
	m := f.measures[r.Intn(len(f.measures))]
	preds := g.predsFor(r, f, 1+r.Intn(2))
	udo := g.pickUDO(r)
	out1 := outPath(r, g.profile.Name, "raw")
	out2 := outPath(r, g.profile.Name, "agg")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s;\n", key, m, f.name, renderPreds(ir, preds))
		fmt.Fprintf(&b, "p = PROCESS f USING %s;\n", udo)
		fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM p GROUP BY %s;\n", key, m, key)
		fmt.Fprintf(&b, "OUTPUT p TO \"%s\";\n", out1)
		fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out2)
		return b.String()
	}
}

// unionProcess: union several facts, run a UDO over the union, aggregate.
func (g *generator) unionProcess(r *xrand.Source) func(*xrand.Source) string {
	f := g.pickFact(r)
	key := f.keys[r.Intn(len(f.keys))]
	branches := g.factsSharingKey(r, f, key, 2+r.Intn(3))
	if len(branches) < 2 {
		return g.reduceJob(r)
	}
	type branchSpec struct {
		fact  factMeta
		m     string
		preds []predSpec
	}
	specs := make([]branchSpec, len(branches))
	for i, bf := range branches {
		specs[i] = branchSpec{
			fact:  bf,
			m:     bf.measures[r.Intn(len(bf.measures))],
			preds: g.predsFor(r, bf, 1+r.Intn(2)),
		}
	}
	udo := g.pickUDO(r)
	mName := specs[0].m
	out := outPath(r, g.profile.Name, "unionproc")
	return func(ir *xrand.Source) string {
		var b strings.Builder
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = fmt.Sprintf("b%d", i+1)
			fmt.Fprintf(&b, "%s = SELECT %s, %s FROM \"%s\" WHERE %s;\n",
				names[i], key.name, s.m, s.fact.name, renderPreds(ir, s.preds))
		}
		fmt.Fprintf(&b, "u = %s;\n", strings.Join(names, " UNION ALL "))
		fmt.Fprintf(&b, "pu = PROCESS u USING %s;\n", udo)
		fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM pu GROUP BY %s;\n", key.name, mName, key.name)
		fmt.Fprintf(&b, "OUTPUT a TO \"%s\";\n", out)
		return b.String()
	}
}
