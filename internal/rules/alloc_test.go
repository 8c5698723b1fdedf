package rules

import (
	"math"
	"testing"

	"steerq/internal/cost"
	"steerq/internal/scopeql"
)

// TestCompileAllocationBudget guards the allocation-lean Cascades core: a
// single default-configuration compile of the smoke job — session, memo
// build, exploration, physical phase, extracted plan — must stay under twice
// what it allocates today. Expressions, candidates, every operator's column
// statistics and everything the rules build — payloads, schemas, prototypes,
// hash keys, predicate trees — are carved from the session's arena, so what
// is left is the extracted plan and the Result; a reintroduced
// per-expression or per-candidate allocation multiplies by tens of
// thousands across a discovery-pipeline run and trips the budget here.
func TestCompileAllocationBudget(t *testing.T) {
	cat := testCatalog()
	root, err := scopeql.Compile(smokeScript, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opt := NewOptimizer(cost.NewEstimated(cat))
	cfg := opt.Rules.DefaultConfig()
	// One warm-up run so lazily initialized shared state is excluded.
	if _, err := opt.Optimize(root, cfg); err != nil {
		t.Fatalf("optimize: %v", err)
	}
	// The least of 20 compiles: one whose pooled arena was dropped — by a
	// collection, or at random under the race detector — pays for a new one.
	least := math.Inf(1)
	for i := 0; i < 20; i++ {
		least = math.Min(least, testing.AllocsPerRun(1, func() {
			if _, e := opt.Optimize(root, cfg); e != nil {
				t.Errorf("optimize: %v", e)
			}
		}))
	}
	// Twice the measured steady state (18, under -race too).
	const budget = 36
	t.Logf("allocs per compile: %.0f (budget %d)", least, budget)
	if least > budget {
		t.Fatalf("compile allocates %.0f times per run, over the %d budget — a hot-path allocation has crept back in", least, budget)
	}
}
