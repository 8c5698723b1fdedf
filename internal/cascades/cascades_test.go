// Behavioral tests of the Cascades engine driven through the real rule
// catalog (external test package to use internal/rules without a cycle).
package cascades_test

import (
	"errors"
	"strings"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
)

func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "f1",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 5000, TrueDistinct: 5000, Min: 0, Max: 5000, Skew: 1.0},
			{Name: "k2", Distinct: 300, TrueDistinct: 300, Min: 0, Max: 300},
			{Name: "v", Distinct: 1000, TrueDistinct: 1000, Min: 0, Max: 500},
			{Name: "flag", Distinct: 10, TrueDistinct: 10, Min: 0, Max: 10},
		},
		BaseRows: 5e7, BytesPerRow: 80, DailySigma: 0.2, GrowthPerDay: 1,
	})
	cat.AddStream(&catalog.Stream{
		Name: "f2",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 5000, TrueDistinct: 4800, Min: 0, Max: 5000},
			{Name: "w", Distinct: 800, TrueDistinct: 800, Min: 0, Max: 400},
		},
		BaseRows: 2e7, BytesPerRow: 60, DailySigma: 0.2, GrowthPerDay: 1,
	})
	cat.AddStream(&catalog.Stream{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 5000, TrueDistinct: 5000, Min: 0, Max: 5000},
			{Name: "attr", Distinct: 25, TrueDistinct: 25, Min: 0, Max: 25},
		},
		BaseRows: 5000, BytesPerRow: 40, GrowthPerDay: 1,
	})
	cat.AddUDO(&catalog.UDO{Name: "Cook", EstFactor: 1, TrueFactor: 2, CPUPerRow: 3})
	return cat
}

func newOpt(cat *catalog.Catalog) *cascades.Optimizer {
	return rules.NewOptimizer(cost.NewEstimated(cat))
}

func compile(t *testing.T, cat *catalog.Catalog, src string) *plan.Node {
	t.Helper()
	root, err := scopeql.Compile(src, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return root
}

const joinAggScript = `
f = SELECT k, v FROM "f1" WHERE v > 100 AND flag == 3;
j = SELECT f.k AS k, d.attr AS attr, f.v AS v FROM f INNER JOIN "dim" AS d ON f.k == d.k;
a = SELECT attr, SUM(v) AS total, COUNT(*) AS cnt FROM j GROUP BY attr;
OUTPUT a TO "out/x";
`

const unionScript = `
b1 = SELECT k, v FROM "f1" WHERE v > 50;
b2 = SELECT k, w FROM "f2" WHERE w > 10;
u = b1 UNION ALL b2;
a = SELECT k, SUM(v) AS total FROM u GROUP BY k;
OUTPUT a TO "out/u";
`

func TestOptimizeDeterministic(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	cfg := opt.Rules.DefaultConfig()
	r1, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost {
		t.Fatalf("cost varies: %v vs %v", r1.Cost, r2.Cost)
	}
	if !r1.Signature.Equal(r2.Signature) {
		t.Fatal("signature varies across identical compilations")
	}
	if r1.Plan.String() != r2.Plan.String() {
		t.Fatal("plan varies across identical compilations")
	}
}

func TestSignatureSubsetOfEnabled(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, unionScript)
	cfg := opt.Rules.DefaultConfig()
	res, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Signature.Ones() {
		ri, ok := opt.Rules.Info(id)
		if !ok {
			t.Fatalf("signature bit %d has no rule", id)
		}
		if ri.Category != cascades.Required && !cfg.Get(id) {
			t.Fatalf("disabled rule %s appears in signature", ri)
		}
	}
}

func TestDisabledRuleNeverContributes(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	cfg := opt.Rules.DefaultConfig()
	res, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Disable every non-required rule used by the default plan; none may
	// reappear.
	disabled := cfg
	for _, id := range res.Signature.Ones() {
		if ri, _ := opt.Rules.Info(id); ri.Category != cascades.Required {
			disabled.Clear(id)
		}
	}
	res2, err := opt.Optimize(root, disabled)
	if err != nil {
		// Legal: disabling used implementation rules can make the job
		// uncompilable. ErrNoPlan is the only acceptable error.
		if !errors.Is(err, cascades.ErrNoPlan) {
			t.Fatal(err)
		}
		return
	}
	for _, id := range res2.Signature.Ones() {
		ri, _ := opt.Rules.Info(id)
		if ri.Category != cascades.Required && !disabled.Get(id) {
			t.Fatalf("disabled rule %s contributed to the plan", ri)
		}
	}
}

func TestNoPlanWhenJoinImplsDisabled(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	cfg := opt.Rules.DefaultConfig()
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		cfg.Clear(id)
	}
	// Also disable the off-by-default rewrites that could eliminate the
	// join... none can, so compilation must fail.
	_, err := opt.Optimize(root, cfg)
	if !errors.Is(err, cascades.ErrNoPlan) {
		t.Fatalf("want ErrNoPlan, got %v", err)
	}
}

func TestJoinImplChoiceFollowsConfig(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)

	base := opt.Rules.DefaultConfig()
	only := func(keep int) bitvec.Vector {
		cfg := base
		for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
			if id != keep {
				cfg.Clear(id)
			}
		}
		return cfg
	}
	wantOp := map[int]plan.PhysOp{
		rules.IDHashJoinImpl1:     plan.PhysHashJoin,
		rules.IDJoinImpl2:         plan.PhysHashJoinAlt,
		rules.IDMergeJoinImpl:     plan.PhysMergeJoin,
		rules.IDJoinToApplyIndex1: plan.PhysLoopJoin,
	}
	for keep, op := range wantOp {
		res, err := opt.Optimize(root, only(keep))
		if err != nil {
			t.Fatalf("impl %d: %v", keep, err)
		}
		found := false
		res.Plan.Walk(func(n *plan.PhysNode) {
			if n.Op == op {
				found = true
			}
		})
		if !found {
			t.Errorf("forcing impl rule %d did not produce %v:\n%s", keep, op, res.Plan)
		}
		if !res.Signature.Get(keep) {
			t.Errorf("signature missing forced impl rule %d", keep)
		}
	}
}

func TestUnionImplChoiceFollowsConfig(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, unionScript)
	base := opt.Rules.DefaultConfig()

	cfgMerge := base
	cfgMerge.Clear(rules.IDUnionAllToVirtualDS)
	resMerge, err := opt.Optimize(root, cfgMerge)
	if err != nil {
		t.Fatal(err)
	}
	if !resMerge.Signature.Get(rules.IDUnionAllToUnionAll) {
		t.Error("merge-only config did not use UnionAllToUnionAll")
	}

	cfgVirtual := base
	cfgVirtual.Clear(rules.IDUnionAllToUnionAll)
	resVirtual, err := opt.Optimize(root, cfgVirtual)
	if err != nil {
		t.Fatal(err)
	}
	// The virtual config may bypass the union entirely via
	// GroupbyBelowUnionAll; check the union impl only if a union survived.
	hasUnionOp := false
	resVirtual.Plan.Walk(func(n *plan.PhysNode) {
		if n.Op == plan.PhysVirtualDataset || n.Op == plan.PhysUnionMerge {
			hasUnionOp = true
			if n.Op == plan.PhysUnionMerge {
				t.Error("virtual-only config materialized the union")
			}
		}
	})
	_ = hasUnionOp
}

func TestNonEquiJoinNeedsLoopJoin(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, `
f = SELECT k, v FROM "f1" WHERE v > 400;
j = SELECT f.v AS v, d.attr AS attr FROM f INNER JOIN "dim" AS d ON f.k >= d.k;
OUTPUT j TO "out/theta";
`)
	cfg := opt.Rules.DefaultConfig()
	res, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	res.Plan.Walk(func(n *plan.PhysNode) {
		if n.Op == plan.PhysLoopJoin {
			found = true
		}
	})
	if !found {
		t.Fatalf("theta join should force a loop join:\n%s", res.Plan)
	}
	// Disabling the loop join leaves the theta join unimplementable.
	cfg.Clear(rules.IDJoinToApplyIndex1)
	if _, err := opt.Optimize(root, cfg); !errors.Is(err, cascades.ErrNoPlan) {
		t.Fatalf("want ErrNoPlan for theta join without apply, got %v", err)
	}
}

func TestOffByDefaultRuleFiresWhenEnabled(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, `
b1 = SELECT k, v FROM "f1" WHERE v > 50;
b2 = SELECT k, w FROM "f2" WHERE w > 10;
u = b1 UNION ALL b2;
j = SELECT u.k AS k, d.attr AS attr, u.v AS v FROM u INNER JOIN "dim" AS d ON u.k == d.k;
a = SELECT attr, SUM(v) AS total FROM j GROUP BY attr;
OUTPUT a TO "out/cju";
`)
	// Default: the correlated-join family is off.
	def, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if def.Signature.Get(rules.IDCorrelatedJoinOnUnionAll1) {
		t.Fatal("off-by-default rule fired under the default configuration")
	}
	// The correlated-join rewrite distributes the join over the union but
	// still leaves a UnionAll at the top, so it cannot substitute for a
	// union implementation: with both union implementations disabled the
	// job must fail to compile — one of the "implicit dependencies" that
	// make many candidate configurations uncompilable (§4).
	cfg := bitvec.AllSet(bitvec.Width)
	cfg.Clear(rules.IDUnionAllToUnionAll)
	cfg.Clear(rules.IDUnionAllToVirtualDS)
	if _, err := opt.Optimize(root, cfg); !errors.Is(err, cascades.ErrNoPlan) {
		t.Fatalf("want ErrNoPlan with all union impls disabled, got %v", err)
	}
	// With everything enabled the rewrite participates in the search; its
	// reachability is asserted structurally in internal/rules.
	if _, err := opt.Optimize(root, bitvec.AllSet(bitvec.Width)); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatesVaryAcrossConfigs(t *testing.T) {
	// §5.3's premise: recompiling under different configurations yields
	// different estimated costs for the same job.
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	def, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.Rules.DefaultConfig()
	cfg.Clear(rules.IDSelectPredNormalized)
	cfg.Clear(rules.IDSelectIntoGet)
	cfg.Clear(rules.IDJoinImpl2)
	alt, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Cost == alt.Cost {
		t.Fatal("estimated cost identical across very different configurations")
	}
}

// TestScanDOPFollowsStreamSize: a scan's degree of parallelism is sized on
// the bytes of the stream it reads (§5.3), so one job compiled against
// catalogs that differ only in that stream's size gets a DOP below the cap
// for a small stream, the cap for a large one, and a DOP that never drops as
// the rows widen.
func TestScanDOPFollowsStreamSize(t *testing.T) {
	const capDOP = 50 // the optimizer's maxDOP
	scanDOP := func(rows, bytesPerRow float64) int {
		t.Helper()
		cat := catalog.New()
		cat.AddStream(&catalog.Stream{
			Name: "s",
			Columns: []catalog.Column{
				{Name: "k", Distinct: 5000, TrueDistinct: 5000, Min: 0, Max: 5000},
				{Name: "v", Distinct: 1000, TrueDistinct: 1000, Min: 0, Max: 500},
			},
			BaseRows: rows, BytesPerRow: bytesPerRow, GrowthPerDay: 1,
		})
		opt := newOpt(cat)
		res, err := opt.Optimize(compile(t, cat, `a = SELECT k, v FROM "s" WHERE v > 100; OUTPUT a TO "out/s";`), opt.Rules.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dop := 0
		res.Plan.Walk(func(n *plan.PhysNode) {
			if (n.Op == plan.PhysExtract || n.Op == plan.PhysRangeScan) && n.Table == "s" {
				dop = n.Dist.DOP
			}
		})
		if dop == 0 {
			t.Fatalf("no scan of s in\n%s", res.Plan)
		}
		return dop
	}
	if d := scanDOP(1e6, 100); d >= capDOP {
		t.Errorf("scan of a 100 MB stream: DOP %d, want below %d", d, capDOP)
	}
	if d := scanDOP(1e9, 100); d != capDOP {
		t.Errorf("scan of a 100 GB stream: DOP %d, want %d", d, capDOP)
	}
	prev := 0
	for _, bpr := range []float64{10, 100, 1000, 10000} {
		d := scanDOP(1e7, bpr)
		if d < prev {
			t.Errorf("1e7 rows of %v bytes: DOP %d, below the %d of narrower rows", bpr, d, prev)
		}
		prev = d
	}
}

func TestSignatureContainsRequiredMachinery(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	res, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{rules.IDBuildOutput, rules.IDGetToRange} {
		if !res.Signature.Get(id) {
			t.Errorf("signature lacks required rule %d", id)
		}
	}
}

func TestPlanDAGPreservedForMultiOutput(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, `
f = SELECT k, v FROM "f1" WHERE v > 300;
p = PROCESS f USING Cook;
a = SELECT k, SUM(v) AS total FROM p GROUP BY k;
OUTPUT p TO "out/raw";
OUTPUT a TO "out/agg";
`)
	res, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The Process operator must appear exactly once in the physical DAG.
	count := 0
	res.Plan.Walk(func(n *plan.PhysNode) {
		if n.Op == plan.PhysProcessImpl {
			count++
		}
	})
	if count != 1 {
		t.Fatalf("shared subplan duplicated: %d ProcessImpl nodes", count)
	}
}

func TestNilPlanRejected(t *testing.T) {
	opt := newOpt(testCatalog())
	if _, err := opt.Optimize(nil, opt.Rules.DefaultConfig()); err == nil {
		t.Fatal("nil plan accepted")
	}
}

// TestAllPlansValidate runs every compiled plan of a generated day through
// the structural validator, under the default configuration and a handful of
// perturbed ones.
func TestAllPlansValidate(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	scripts := []string{joinAggScript, unionScript, `
f = SELECT k, v FROM "f1" WHERE v > 200;
rj = REDUCE f ON k USING Cook;
OUTPUT rj TO "out/r";
`, `
f = SELECT k, v FROM "f1" WHERE v > 100;
t = SELECT TOP 50 k, v FROM f ORDER BY v DESC;
OUTPUT t TO "out/t";
`}
	cfgs := []bitvec.Vector{opt.Rules.DefaultConfig(), bitvec.AllSet(bitvec.Width)}
	alt := opt.Rules.DefaultConfig()
	alt.Clear(rules.IDJoinImpl2)
	alt.Clear(rules.IDLocalGlobalAggImpl)
	alt.Clear(rules.IDUnionAllToVirtualDS)
	cfgs = append(cfgs, alt)
	for si, src := range scripts {
		root := compile(t, cat, src)
		for ci, cfg := range cfgs {
			res, err := opt.Optimize(root, cfg)
			if err != nil {
				continue
			}
			if err := cascades.Validate(res.Plan, 50); err != nil {
				t.Errorf("script %d cfg %d: %v\n%s", si, ci, err, res.Plan)
			}
		}
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	k := plan.Column{ID: 1, Name: "k", Source: "f1.k"}
	schema := []plan.Column{k}
	good := &plan.PhysNode{Op: plan.PhysExtract, Table: "f1", Schema: schema, RuleID: 3,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 4}}
	// A scan of (a, b) hashed on a: good input for a HashAgg on a, not on b.
	a := plan.Column{ID: 1, Name: "a", Source: "f2.a"}
	b := plan.Column{ID: 2, Name: "b", Source: "f2.b"}
	ab := []plan.Column{a, b}
	hashedOnA := &plan.PhysNode{Op: plan.PhysExtract, Table: "f2", Schema: ab, RuleID: 3,
		Dist: plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 4}}
	cases := map[string]*plan.PhysNode{
		"zero DOP": {Op: plan.PhysFilter, Schema: schema, RuleID: 4,
			Children: []*plan.PhysNode{good},
			Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: 0}},
		"missing rule attribution": {Op: plan.PhysFilter, Schema: schema, RuleID: -1,
			Children: []*plan.PhysNode{good},
			Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: 4}},
		"hash without keys": {Op: plan.PhysFilter, Schema: schema, RuleID: 4,
			Children: []*plan.PhysNode{good},
			Dist:     plan.Distribution{Kind: plan.DistHash, DOP: 4}},
		"keyed agg over random input": {Op: plan.PhysHashAgg, Schema: schema, RuleID: 228,
			GroupKeys: schema,
			Children:  []*plan.PhysNode{good},
			Dist:      plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 4}},
		"keyed agg over input hashed on another column": {Op: plan.PhysHashAgg, Schema: []plan.Column{b}, RuleID: 228,
			GroupKeys: []plan.Column{b},
			Children:  []*plan.PhysNode{hashedOnA},
			Dist:      plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{2}, DOP: 4}},
		"reducer over input hashed on another column": {Op: plan.PhysReduceImpl, Schema: ab, RuleID: 234,
			ReduceKeys: []plan.Column{b},
			Children:   []*plan.PhysNode{hashedOnA},
			Dist:       plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 4}},
		"join arity": {Op: plan.PhysHashJoin, Schema: schema, RuleID: 224,
			Children: []*plan.PhysNode{good},
			Dist:     plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 4}},
	}
	for name, p := range cases {
		if err := cascades.Validate(p, 50); err == nil {
			t.Errorf("%s: validator accepted a broken plan", name)
		}
	}
	if err := cascades.Validate(good, 50); err != nil {
		t.Errorf("validator rejected a good plan: %v", err)
	}
	aggOnA := &plan.PhysNode{Op: plan.PhysHashAgg, Schema: []plan.Column{a}, RuleID: 228,
		GroupKeys: []plan.Column{a},
		Children:  []*plan.PhysNode{hashedOnA},
		Dist:      plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 4}}
	if err := cascades.Validate(aggOnA, 50); err != nil {
		t.Errorf("validator rejected a HashAgg on a over input hashed on a: %v", err)
	}
}

// TestValidateReturnsAllViolations injects several independent defects into
// one plan and checks the multi-error Validate reports every one of them,
// not just the first.
func TestValidateReturnsAllViolations(t *testing.T) {
	k := plan.Column{ID: 1, Name: "k", Source: "f1.k"}
	schema := []plan.Column{k}
	scan := &plan.PhysNode{Op: plan.PhysExtract, Table: "f1", Schema: schema, RuleID: 3,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 4}}
	// Defect 1: a broadcast exchange delivering a random distribution.
	exch := &plan.PhysNode{Op: plan.PhysExchange, Exchange: plan.ExchangeBroadcast,
		Schema: schema, RuleID: 0,
		Children: []*plan.PhysNode{scan},
		Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: 4}}
	// Defects 2-4 on the root: schema invents column 9 the child does not
	// produce, DOP exceeds the maximum, and the rule attribution is missing.
	root := &plan.PhysNode{Op: plan.PhysFilter,
		Schema:   []plan.Column{k, {ID: 9, Name: "ghost"}},
		RuleID:   -1,
		Children: []*plan.PhysNode{exch},
		Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: 99}}

	err := cascades.Validate(root, 50)
	if err == nil {
		t.Fatal("validator accepted a plan with four defects")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("Validate did not return a joined multi-error: %T: %v", err, err)
	}
	if n := len(joined.Unwrap()); n < 4 {
		t.Errorf("Validate reported %d violations, want at least 4:\n%v", n, err)
	}
	for _, want := range []string{
		"broadcast delivering",
		"does not preserve child schema",
		"DOP 99 outside [1, 50]",
		"without rule attribution",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing violation %q in:\n%v", want, err)
		}
	}
}

// TestOptimizeCostMatchesOptimize pins the plan-less compile to the full
// one: across a spread of configurations — the default, single-bit
// ablations of the default footprint, and uncompilable variants — both
// paths must agree on outcome, cost, signature, footprint and memo
// statistics, with OptimizeCost returning no plan.
func TestOptimizeCostMatchesOptimize(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	base := opt.Rules.DefaultConfig()
	full, err := opt.Optimize(root, base)
	if err != nil {
		t.Fatal(err)
	}

	configs := []bitvec.Vector{base}
	for _, id := range full.Footprint.Ones() {
		c := base
		c.Assign(id, !c.Get(id))
		configs = append(configs, c)
	}
	// An uncompilable variant: no join implementation survives.
	broken := base
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		broken.Clear(id)
	}
	configs = append(configs, broken)

	var noPlan, compiled int
	for _, cfg := range configs {
		want, werr := opt.Optimize(root, cfg)
		got, gerr := opt.OptimizeCost(root, cfg)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("cfg %s: outcome diverged: Optimize err=%v, OptimizeCost err=%v", cfg.Hex(), werr, gerr)
		}
		if werr != nil {
			if !errors.Is(werr, cascades.ErrNoPlan) {
				t.Fatal(werr)
			}
			noPlan++
			if !want.Footprint.Equal(got.Footprint) {
				t.Fatalf("cfg %s: no-plan footprints diverged", cfg.Hex())
			}
			continue
		}
		compiled++
		if got.Plan != nil {
			t.Fatalf("cfg %s: OptimizeCost materialized a plan", cfg.Hex())
		}
		if want.Cost != got.Cost {
			t.Fatalf("cfg %s: cost %v vs %v", cfg.Hex(), want.Cost, got.Cost)
		}
		if !want.Signature.Equal(got.Signature) {
			t.Fatalf("cfg %s: signatures diverged: %s vs %s", cfg.Hex(), want.Signature.Hex(), got.Signature.Hex())
		}
		if !want.Footprint.Equal(got.Footprint) {
			t.Fatalf("cfg %s: footprints diverged", cfg.Hex())
		}
		if want.Groups != got.Groups || want.Exprs != got.Exprs {
			t.Fatalf("cfg %s: memo stats diverged: %d/%d vs %d/%d",
				cfg.Hex(), want.Groups, want.Exprs, got.Groups, got.Exprs)
		}
	}
	if compiled == 0 {
		t.Fatal("no configuration compiled; the equivalence check is vacuous")
	}
	t.Logf("checked %d configs: %d compiled, %d no-plan", len(configs), compiled, noPlan)
}
