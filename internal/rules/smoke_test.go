package rules

import (
	"testing"

	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/plan"
	"steerq/internal/scopeql"
)

// heap is the allocator the tests build plans with.
var heap plan.Heap

// testCatalog builds a small catalog shared by the package tests.
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "shop/orders",
		Columns: []catalog.Column{
			{Name: "user_id", Distinct: 50000, TrueDistinct: 48000, Min: 0, Max: 50000, Skew: 1.1},
			{Name: "amount", Distinct: 10000, TrueDistinct: 9000, Min: 0, Max: 1000},
			{Name: "region", Distinct: 20, TrueDistinct: 20, Min: 0, Max: 20},
			{Name: "day_part", Distinct: 4, TrueDistinct: 4, Min: 0, Max: 4},
		},
		BaseRows:    5e6,
		DailySigma:  0.2,
		BytesPerRow: 120,
		Correlations: []catalog.Correlation{
			{A: "region", B: "day_part", Factor: 3.5},
		},
		GrowthPerDay: 1.0,
	})
	cat.AddStream(&catalog.Stream{
		Name: "shop/users",
		Columns: []catalog.Column{
			{Name: "user_id", Distinct: 50000, TrueDistinct: 48000, Min: 0, Max: 50000},
			{Name: "segment", Distinct: 8, TrueDistinct: 8, Min: 0, Max: 8},
			{Name: "score", Distinct: 1000, TrueDistinct: 900, Min: 0, Max: 100},
		},
		BaseRows:     50000,
		DailySigma:   0.05,
		BytesPerRow:  64,
		GrowthPerDay: 1.0,
	})
	cat.AddStream(&catalog.Stream{
		Name: "shop/clicks",
		Columns: []catalog.Column{
			{Name: "user_id", Distinct: 40000, TrueDistinct: 42000, Min: 0, Max: 50000, Skew: 1.4},
			{Name: "page", Distinct: 300, TrueDistinct: 310, Min: 0, Max: 300},
		},
		BaseRows:     2e7,
		DailySigma:   0.3,
		BytesPerRow:  48,
		GrowthPerDay: 1.0,
	})
	cat.AddUDO(&catalog.UDO{Name: "SegmentScorer", EstFactor: 1, TrueFactor: 1.6, CPUPerRow: 3})
	cat.AddUDO(&catalog.UDO{Name: "Cooker", EstFactor: 1, TrueFactor: 0.4, CPUPerRow: 6})
	return cat
}

const smokeScript = `
filtered = SELECT user_id, region, amount FROM "shop/orders"
           WHERE amount > 100 AND region == 3 AND day_part == 2;
joined   = SELECT f.user_id, u.segment, f.amount
           FROM filtered AS f
           INNER JOIN "shop/users" AS u ON f.user_id == u.user_id;
agg      = SELECT segment, SUM(amount) AS total, COUNT(*) AS cnt
           FROM joined GROUP BY segment;
cooked   = PROCESS agg USING SegmentScorer;
OUTPUT cooked TO "out/segment_totals";
`

func TestOptimizeSmoke(t *testing.T) {
	cat := testCatalog()
	root, err := scopeql.Compile(smokeScript, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opt := NewOptimizer(cost.NewEstimated(cat))
	rs := opt.Rules
	res, err := opt.Optimize(root, rs.DefaultConfig())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.Plan == nil || res.Cost <= 0 {
		t.Fatalf("bad result: plan=%v cost=%v", res.Plan, res.Cost)
	}
	if res.Signature.IsEmpty() {
		t.Fatal("empty rule signature")
	}
	t.Logf("cost=%.3f groups=%d exprs=%d sig=%v", res.Cost, res.Groups, res.Exprs, res.Signature)
	t.Logf("plan:\n%s", res.Plan)
	for _, id := range res.Signature.Ones() {
		ri, ok := rs.Info(id)
		if !ok {
			t.Errorf("signature references unknown rule %d", id)
			continue
		}
		t.Logf("used rule: %s", ri)
	}
}

// TestWinnerKeyedByHashKeys aggregates one shared scan on two different
// keys. With two-phase aggregation off, both aggregations ask the scan's
// group for hash distributions that differ only in their keys, so each must
// get the winner of its own requirement back — a winner cache that ignored
// the keys would hand the second aggregation the first one's exchange.
func TestWinnerKeyedByHashKeys(t *testing.T) {
	cat := testCatalog()
	col := func(id int, name string) plan.Column {
		return plan.Column{ID: plan.ColumnID(id), Name: name, Source: "shop/orders." + name}
	}
	user, amount, region, dayPart := col(1, "user_id"), col(2, "amount"), col(3, "region"), col(4, "day_part")
	get := plan.NewGet(heap, "shop/orders", []plan.Column{user, amount, region, dayPart})
	root := plan.NewMulti(heap,
		plan.NewOutput(heap, plan.NewGroupBy(heap, get, []plan.Column{user}, nil), "out/by_user"),
		plan.NewOutput(heap, plan.NewGroupBy(heap, get, []plan.Column{region}, nil), "out/by_region"),
	)
	opt := NewOptimizer(cost.NewEstimated(cat))
	cfg := opt.Rules.DefaultConfig()
	cfg.Clear(IDLocalGlobalAggImpl)
	res, err := opt.Optimize(root, cfg)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	aggs := 0
	var walk func(n *plan.PhysNode)
	walk = func(n *plan.PhysNode) {
		if n.Op == plan.PhysHashAgg {
			aggs++
			key := n.GroupKeys[0].ID
			if d := n.Children[0].Dist; d.Kind != plan.DistHash || len(d.Keys) != 1 || d.Keys[0] != key {
				t.Errorf("HashAgg on %d over child delivering %v", key, d)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Plan)
	if aggs != 2 {
		t.Fatalf("plan has %d HashAggs, want 2:\n%s", aggs, res.Plan)
	}
}
