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
