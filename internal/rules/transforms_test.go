package rules

import (
	"testing"

	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/plan"
	"steerq/internal/scopeql"
)

// buildMemo compiles a script and wraps its logical plan in a memo.
func buildMemo(t *testing.T, src string) *cascades.Memo {
	t.Helper()
	cat := testCatalog()
	root, err := scopeql.Compile(src, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return cascades.NewMemo(root, cost.NewEstimated(cat))
}

// ruleExprs returns the memo's expressions of the rule's operator, in memo
// order: the expressions the optimizer would hand the rule. Tests find what
// to rewrite through MatchOp, so a rule declared under the wrong operator
// fails its own behaviour test.
func ruleExprs(m *cascades.Memo, r cascades.TransformRule) []*cascades.MExpr {
	var out []*cascades.MExpr
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == r.MatchOp() {
				out = append(out, e)
			}
		}
	}
	return out
}

// ruleExpr returns the first memo expression of the rule's operator.
func ruleExpr(t *testing.T, m *cascades.Memo, r cascades.TransformRule) *cascades.MExpr {
	t.Helper()
	es := ruleExprs(m, r)
	if len(es) == 0 {
		t.Fatalf("no %v expression in memo", r.MatchOp())
	}
	return es[0]
}

// applyAndIntern applies a transform to every expression of its operator
// and interns the results, returning how many were produced.
func applyAndIntern(m *cascades.Memo, r cascades.TransformRule) int {
	n := 0
	for _, e := range ruleExprs(m, r) {
		for _, rn := range r.Apply(e, m) {
			m.Intern(rn, e.Group, e, r.Info().ID)
			n++
		}
	}
	return n
}

const filterJoinScript = `
f = SELECT user_id, amount, region FROM "shop/orders";
fw = SELECT user_id, amount FROM f WHERE amount > 100 AND region == 2;
j = SELECT fw.user_id AS user_id, u.segment AS segment, fw.amount AS amount
    FROM fw INNER JOIN "shop/users" AS u ON fw.user_id == u.user_id;
jf = SELECT user_id, segment, amount FROM j WHERE amount > 500;
OUTPUT jf TO "out/x";
`

func mkRule[T any](ctor func(info) T, id int, name string, cat cascades.Category) T {
	return ctor(info(cascades.RuleInfo{ID: id, Name: name, Category: cat}))
}

func TestCollapseSelectsApply(t *testing.T) {
	m := buildMemo(t, `
a = SELECT user_id, amount FROM "shop/orders" WHERE amount > 10;
b = SELECT user_id, amount FROM a WHERE amount < 500;
OUTPUT b TO "o";
`)
	// The memo holds Select(Project(Select(...))) from the two statements;
	// collapse applies to adjacent selects only, so first push the outer
	// select through the project.
	sop := selectOnProject{info: info(cascades.RuleInfo{ID: IDSelectOnProject, Name: "t", Category: cascades.OnByDefault})}
	if applyAndIntern(m, sop) == 0 {
		t.Fatal("SelectOnProject produced nothing")
	}
	cs := collapseSelects{info: info(cascades.RuleInfo{ID: IDCollapseSelects, Name: "t", Category: cascades.OnByDefault})}
	if applyAndIntern(m, cs) == 0 {
		t.Fatal("CollapseSelects never applied")
	}
	// A merged select must exist whose predicate has both conjuncts.
	found := false
	for _, e := range ruleExprs(m, cs) {
		if len(plan.Conjuncts(e.Node.Pred)) >= 2 && e.RuleID == IDCollapseSelects {
			found = true
		}
	}
	if !found {
		t.Fatal("no merged-predicate select interned")
	}
}

func TestSelectOnJoinPushesOneSide(t *testing.T) {
	m := buildMemo(t, filterJoinScript)
	r := selectOnJoin{info: info(cascades.RuleInfo{ID: IDSelectOnJoinLeft, Name: "t", Category: cascades.OnByDefault}), side: 0}
	// The select above the join filters on amount (left side): after
	// pushing the project-level select, the join-level select can move.
	sop := selectOnProject{info: info(cascades.RuleInfo{ID: IDSelectOnProject, Name: "t2", Category: cascades.OnByDefault})}
	for pass := 0; pass < 3; pass++ {
		applyAndIntern(m, sop)
		applyAndIntern(m, r)
	}
	// Some join expression must now have a Select group as its left child
	// that was produced by the pushdown.
	found := false
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.RuleID == IDSelectOnJoinLeft {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("filter pushdown through join never fired")
	}
}

func TestSelectPredNormalizedOrdersBySelectivity(t *testing.T) {
	m := buildMemo(t, `
a = SELECT user_id, amount FROM "shop/orders" WHERE amount > 10 AND region == 3;
OUTPUT a TO "o";
`)
	r := selectPredNormalized{info: info(cascades.RuleInfo{ID: IDSelectPredNormalized, Name: "t", Category: cascades.OnByDefault})}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("normalization produced %d results", len(res))
	}
	conj := plan.Conjuncts(res[0].Node.Pred)
	est := m.Estimator()
	props := e.Children[0].Props
	for i := 1; i < len(conj); i++ {
		if est.Selectivity(conj[i-1], props) > est.Selectivity(conj[i], props) {
			t.Fatal("conjuncts not sorted by ascending selectivity")
		}
	}
}

func TestSelectIntoGetMergesPredicate(t *testing.T) {
	m := buildMemo(t, `
a = SELECT user_id, amount FROM "shop/orders" WHERE amount > 10;
OUTPUT a TO "o";
`)
	r := selectIntoGet{info: info(cascades.RuleInfo{ID: IDSelectIntoGet, Name: "t", Category: cascades.OnByDefault})}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Node.Op != plan.OpGet || res[0].Node.Pred == nil {
		t.Fatalf("merged scan wrong: %v", res[0].Node.Op)
	}
}

func TestJoinCommuteSwapsChildren(t *testing.T) {
	m := buildMemo(t, filterJoinScript)
	r := joinCommute{info: info(cascades.RuleInfo{ID: IDJoinCommute, Name: "t", Category: cascades.OnByDefault})}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("commute produced %d results", len(res))
	}
	if res[0].Children[0].Group != e.Children[1] || res[0].Children[1].Group != e.Children[0] {
		t.Fatal("children not swapped")
	}
	// Double commute dedups back to the original expression.
	before := len(e.Group.Exprs)
	m.Intern(res[0], e.Group, e, IDJoinCommute)
	commuted := e.Group.Exprs[len(e.Group.Exprs)-1]
	res2 := r.Apply(commuted, m)
	m.Intern(res2[0], e.Group, commuted, IDJoinCommute)
	if len(e.Group.Exprs) != before+1 {
		t.Fatalf("double commute grew the group: %d -> %d", before, len(e.Group.Exprs))
	}
}

const threeWayJoinScript = `
f = SELECT user_id, amount FROM "shop/orders" WHERE amount > 50;
j1 = SELECT f.user_id AS user_id, f.amount AS amount, u.segment AS segment
     FROM f INNER JOIN "shop/users" AS u ON f.user_id == u.user_id;
j2 = SELECT j1.amount AS amount, j1.segment AS segment, c.page AS page
     FROM j1 INNER JOIN "shop/clicks" AS c ON j1.user_id == c.user_id;
OUTPUT j2 TO "out/3way";
`

func TestJoinAssocCreatesAlternative(t *testing.T) {
	m := buildMemo(t, threeWayJoinScript)
	// Find the upper join: a Join expression whose left child group holds a
	// Project; push that first so the assoc rule can see Join(Join...).
	// Rather than orchestrate passes by hand, run the full optimizer and
	// assert the rule can fire via provenance in at least one memo... here
	// we instead check the rule's structural contract on a hand-built
	// Join(Join(A,B),C).
	cat := testCatalog()
	a, _ := scopeql.Compile(`x = SELECT user_id, amount FROM "shop/orders"; OUTPUT x TO "o";`, cat)
	_ = a
	_ = m
	// Build Join(Join(A,B),C) directly.
	mkCol := func(id int, name, src string) plan.Column {
		return plan.Column{ID: plan.ColumnID(id), Name: name, Source: src}
	}
	ka := mkCol(1, "user_id", "shop/orders.user_id")
	kb := mkCol(2, "user_id", "shop/users.user_id")
	kc := mkCol(3, "user_id", "shop/clicks.user_id")
	A := plan.NewGet("shop/orders", []plan.Column{ka})
	B := plan.NewGet("shop/users", []plan.Column{kb})
	C := plan.NewGet("shop/clicks", []plan.Column{kc})
	inner := plan.NewJoin(A, B, plan.Cmp(plan.OpEQ, plan.ColExpr(ka), plan.ColExpr(kb)))
	outer := plan.NewJoin(inner, C, plan.Cmp(plan.OpEQ, plan.ColExpr(kb), plan.ColExpr(kc)))
	root := plan.NewOutput(outer, "o")
	mm := cascades.NewMemo(root, cost.NewEstimated(cat))

	r := joinAssoc{info: info(cascades.RuleInfo{ID: IDJoinAssocLeft, Name: "t", Category: cascades.OnByDefault}), side: 0}
	var oe *cascades.MExpr
	for _, e := range ruleExprs(mm, r) {
		if len(e.Group.Schema) == 3 {
			oe = e
		}
	}
	if oe == nil {
		t.Fatal("outer join expression not found")
	}
	res := r.Apply(oe, mm)
	if len(res) != 1 {
		t.Fatalf("assoc produced %d results", len(res))
	}
	// New shape: Join(A, Join(B, C)).
	if res[0].Children[0].Group == nil {
		t.Fatal("left child of reassociated join should be group A")
	}
	if res[0].Children[1].Sub == nil || res[0].Children[1].Sub.Node.Op != plan.OpJoin {
		t.Fatal("right child should be a fresh inner join")
	}
}

func TestGroupbyBelowUnionAllShape(t *testing.T) {
	m := buildMemo(t, `
b1 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 5;
b2 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 700;
u = b1 UNION ALL b2;
a = SELECT user_id, SUM(amount) AS total, COUNT(*) AS cnt FROM u GROUP BY user_id;
OUTPUT a TO "o";
`)
	// Push the aggregation below the binder's Project first.
	gop := groupbyOnProject{info: info(cascades.RuleInfo{ID: IDGroupbyOnProject, Name: "t0", Category: cascades.OnByDefault})}
	applyAndIntern(m, gop)
	r := groupbyBelowUnionAll{info: info(cascades.RuleInfo{ID: IDGroupbyBelowUnionAll, Name: "t", Category: cascades.OnByDefault})}
	produced := 0
	for _, e := range ruleExprs(m, r) {
		for _, rn := range r.Apply(e, m) {
			// Shape: GroupBy(UnionAll(GroupBy(b1), GroupBy(b2))).
			if rn.Node.Op != plan.OpGroupBy {
				t.Fatalf("root of rewrite is %v", rn.Node.Op)
			}
			un := rn.Children[0].Sub
			if un == nil || un.Node.Op != plan.OpUnionAll {
				t.Fatal("rewrite lacks inner union")
			}
			for _, b := range un.Children {
				if b.Sub == nil || b.Sub.Node.Op != plan.OpGroupBy {
					t.Fatal("union branch is not a local aggregation")
				}
			}
			// Final aggregates merge partials: COUNT becomes SUM.
			for _, agg := range rn.Node.Aggs {
				if agg.Fn == "COUNT" {
					t.Fatal("final aggregation kept COUNT; partial counts must be summed")
				}
			}
			produced++
		}
	}
	if produced == 0 {
		t.Fatal("GroupbyBelowUnionAll never fired")
	}
}

func TestCorrelatedJoinOnUnionAllShape(t *testing.T) {
	m := buildMemo(t, `
b1 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 5;
b2 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 700;
u = b1 UNION ALL b2;
j = SELECT u.user_id AS user_id, d.segment AS segment FROM u INNER JOIN "shop/users" AS d ON u.user_id == d.user_id;
OUTPUT j TO "o";
`)
	r := correlatedJoinOnUnionAll{
		info:        info(cascades.RuleInfo{ID: IDCorrelatedJoinOnUnionAll1, Name: "t", Category: cascades.OffByDefault}),
		side:        0,
		minBranches: 2, maxBranches: 2,
	}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("correlated join produced %d results", len(res))
	}
	rn := res[0]
	if rn.Node.Op != plan.OpUnionAll || len(rn.Children) != 2 {
		t.Fatalf("rewrite root is %v with %d children", rn.Node.Op, len(rn.Children))
	}
	for _, c := range rn.Children {
		if c.Sub == nil || c.Sub.Node.Op != plan.OpJoin {
			t.Fatal("union branch is not a join")
		}
		// Both branch joins share the dimension group (memo DAG).
		if c.Sub.Children[1].Group != e.Children[1] {
			t.Fatal("branch join does not share the original right group")
		}
	}
	// Branch-count guard: a three-branch union must not match variant 1.
	m3 := buildMemo(t, `
b1 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 5;
b2 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 300;
b3 = SELECT user_id, amount FROM "shop/orders" WHERE amount > 700;
u = b1 UNION ALL b2 UNION ALL b3;
j = SELECT u.user_id AS user_id, d.segment AS segment FROM u INNER JOIN "shop/users" AS d ON u.user_id == d.user_id;
OUTPUT j TO "o";
`)
	e3 := ruleExpr(t, m3, r)
	if got := r.Apply(e3, m3); len(got) != 0 {
		t.Fatalf("variant 1 (<=2 branches) matched a 3-branch union: %d results", len(got))
	}
}

func TestGroupbyOnJoinGuards(t *testing.T) {
	// Keys and aggregate arguments from the left side: rule applies.
	mOK := buildMemo(t, `
f = SELECT user_id, amount FROM "shop/orders" WHERE amount > 5;
j = SELECT f.user_id AS user_id, f.amount AS amount, d.segment AS segment FROM f INNER JOIN "shop/users" AS d ON f.user_id == d.user_id;
a = SELECT user_id, SUM(amount) AS total FROM j GROUP BY user_id;
OUTPUT a TO "o";
`)
	gop := groupbyOnProject{info: info(cascades.RuleInfo{ID: IDGroupbyOnProject, Name: "t0", Category: cascades.OnByDefault})}
	applyAndIntern(mOK, gop)
	r := groupbyOnJoin{info: info(cascades.RuleInfo{ID: IDGroupbyOnJoin, Name: "t", Category: cascades.OffByDefault}), side: 0}
	fired := 0
	for _, e := range ruleExprs(mOK, r) {
		res := r.Apply(e, mOK)
		fired += len(res)
		for _, rn := range res {
			if rn.Node.Op != plan.OpGroupBy {
				t.Fatal("eager aggregation root must be a final GroupBy")
			}
		}
	}
	if fired == 0 {
		t.Fatal("GroupbyOnJoin did not fire on a left-side aggregation")
	}

	// Keys from the right (dimension) side: the left-side variant must not
	// fire on the dimension attribute grouping.
	mNo := buildMemo(t, `
f = SELECT user_id, amount FROM "shop/orders" WHERE amount > 5;
j = SELECT f.user_id AS user_id, f.amount AS amount, d.segment AS segment FROM f INNER JOIN "shop/users" AS d ON f.user_id == d.user_id;
a = SELECT segment, SUM(amount) AS total FROM j GROUP BY segment;
OUTPUT a TO "o";
`)
	applyAndIntern(mNo, gop)
	for _, e := range ruleExprs(mNo, r) {
		if res := r.Apply(e, mNo); len(res) != 0 {
			t.Fatal("GroupbyOnJoin fired with keys and args split across sides")
		}
	}
}

func TestUnionAllFlatten(t *testing.T) {
	m := buildMemo(t, `
b1 = SELECT user_id FROM "shop/orders";
b2 = SELECT user_id FROM "shop/orders" WHERE amount > 1;
b3 = SELECT user_id FROM "shop/orders" WHERE amount > 2;
u1 = b1 UNION ALL b2;
u2 = u1 UNION ALL b3;
OUTPUT u2 TO "o";
`)
	r := unionAllFlatten{info: info(cascades.RuleInfo{ID: IDUnionAllFlatten, Name: "t", Category: cascades.OnByDefault})}
	fired := false
	for _, e := range ruleExprs(m, r) {
		for _, rn := range r.Apply(e, m) {
			if len(rn.Children) != 3 {
				t.Fatalf("flattened union has %d children, want 3", len(rn.Children))
			}
			fired = true
		}
	}
	if !fired {
		t.Fatal("UnionAllFlatten never fired on a nested union")
	}
}

func TestSelectSplitDisjunction(t *testing.T) {
	m := buildMemo(t, `
a = SELECT user_id, amount FROM "shop/orders" WHERE amount > 900 OR region == 2;
OUTPUT a TO "o";
`)
	r := selectSplitDisjunction{info: info(cascades.RuleInfo{ID: IDSelectSplitDisjunction, Name: "t", Category: cascades.OffByDefault})}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("split produced %d results", len(res))
	}
	if res[0].Node.Op != plan.OpUnionAll || len(res[0].Children) != 2 {
		t.Fatal("split did not produce a two-branch union")
	}
}

func TestSelectOnTrueDropsTrivial(t *testing.T) {
	cat := testCatalog()
	c := plan.Column{ID: 1, Name: "a", Source: "shop/orders.amount"}
	get := plan.NewGet("shop/orders", []plan.Column{c})
	pred := plan.And(
		plan.Cmp(plan.OpEQ, plan.NumExpr(1), plan.NumExpr(1)), // trivially true
		plan.Cmp(plan.OpGT, plan.ColExpr(c), plan.NumExpr(5)),
	)
	root := plan.NewOutput(plan.NewSelect(get, pred), "o")
	m := cascades.NewMemo(root, cost.NewEstimated(cat))
	r := selectOnTrue{info: info(cascades.RuleInfo{ID: IDSelectOnTrue, Name: "t", Category: cascades.OnByDefault})}
	e := ruleExpr(t, m, r)
	res := r.Apply(e, m)
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if got := len(plan.Conjuncts(res[0].Node.Pred)); got != 1 {
		t.Fatalf("trivial conjunct survived: %d conjuncts", got)
	}
}

func TestTransitivePredicateDerivesMirror(t *testing.T) {
	m := buildMemo(t, `
f = SELECT user_id, amount FROM "shop/orders";
j = SELECT f.user_id AS uid, u.segment AS segment FROM f INNER JOIN "shop/users" AS u ON f.user_id == u.user_id;
OUTPUT j TO "o";
`)
	// Build a Select above the Join manually: pred on the left key.
	var join *cascades.MExpr
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == plan.OpJoin {
				join = e
			}
		}
	}
	if join == nil {
		t.Fatal("no join in memo")
	}
	var leftKey plan.Column
	a, b, ok := join.Node.Pred.EquiJoinSides()
	if !ok {
		t.Fatal("join is not equi")
	}
	leftKey = a
	pred := plan.Cmp(plan.OpGT, plan.ColExpr(leftKey), plan.NumExpr(100))
	sel := &cascades.RNode{
		Node:     selNode(m, pred, join.Group.Schema),
		Children: []cascades.RChild{cascades.GroupChild(join.Group)},
	}
	// Intern the select as a root over the join group (fresh group).
	m.Intern(sel, nil, join, -1)
	r := transitivePredicate{info: info(cascades.RuleInfo{ID: IDTransitivePredicate, Name: "t", Category: cascades.OnByDefault})}
	var selExpr *cascades.MExpr
	for _, e := range ruleExprs(m, r) {
		if e.Children[0] == join.Group {
			selExpr = e
		}
	}
	if selExpr == nil {
		t.Fatal("select expr not interned")
	}
	res := r.Apply(selExpr, m)
	if len(res) != 1 {
		t.Fatalf("transitive predicate produced %d results", len(res))
	}
	conj := plan.Conjuncts(res[0].Node.Pred)
	if len(conj) != 2 {
		t.Fatalf("derived predicate has %d conjuncts, want 2", len(conj))
	}
	// The derived conjunct references the right key.
	found := false
	for _, c := range conj {
		col, ok := singleColumnConst(c)
		if ok && col.ID == b.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("mirror conjunct on %v missing: %v", b, res[0].Node.Pred)
	}
	// Re-application adds nothing new (idempotent modulo dedup).
	selNode2 := &cascades.RNode{Node: res[0].Node, Children: res[0].Children}
	m.Intern(selNode2, selExpr.Group, selExpr, IDTransitivePredicate)
	enriched := selExpr.Group.Exprs[len(selExpr.Group.Exprs)-1]
	if again := r.Apply(enriched, m); len(again) != 0 {
		t.Fatalf("rule re-derived existing conjuncts: %v", again[0].Node.Pred)
	}
}

func TestUdoPredicateTransfer(t *testing.T) {
	m := buildMemo(t, `
f = SELECT user_id, amount FROM "shop/orders";
rj = REDUCE f ON user_id USING Cooker;
fl = SELECT user_id, amount FROM rj WHERE user_id > 100 AND amount > 5;
OUTPUT fl TO "o";
`)
	r := udoPredicateTransfer{info: info(cascades.RuleInfo{ID: IDUdoPredicateTransfer, Name: "t", Category: cascades.OnByDefault})}
	sop := selectOnProject{info: info(cascades.RuleInfo{ID: IDSelectOnProject, Name: "t2", Category: cascades.OnByDefault})}
	// Push the select through the binder's Project first, then apply.
	for pass := 0; pass < 2; pass++ {
		applyAndIntern(m, sop)
	}
	fired := 0
	for _, e := range ruleExprs(m, r) {
		for _, rn := range r.Apply(e, m) {
			fired++
			// Root must keep the non-key conjunct above the reduce.
			if rn.Node.Op != plan.OpSelect {
				t.Fatalf("rewrite root %v; the amount conjunct cannot cross the UDO", rn.Node.Op)
			}
			if got := len(plan.Conjuncts(rn.Node.Pred)); got != 1 {
				t.Fatalf("%d conjuncts stayed above the reduce, want 1", got)
			}
		}
	}
	if fired == 0 {
		t.Fatal("UdoPredicateTransfer never fired")
	}
}
