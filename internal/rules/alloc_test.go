package rules

import (
	"testing"

	"steerq/internal/cost"
	"steerq/internal/scopeql"
)

// TestCompileAllocationBudget guards the allocation-lean Cascades core: a
// single default-configuration compile of the smoke job — session, memo
// build, exploration, physical phase, extracted plan — must stay under twice
// what it allocates today. Expressions, candidates and every operator's
// column statistics are carved from the session's arena, so what is left is
// the rules' own payloads (new nodes, schemas, prototypes) and the plan; a
// reintroduced per-expression or per-candidate allocation multiplies by tens
// of thousands across a discovery-pipeline run and trips the budget here.
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
	avg := testing.AllocsPerRun(20, func() {
		if _, e := opt.Optimize(root, cfg); e != nil {
			t.Errorf("optimize: %v", e)
		}
	})
	// ~2x the measured steady state (184; 206 under -race, whose
	// instrumentation adds a few allocations of its own).
	const budget = 400
	t.Logf("allocs per compile: %.0f (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("compile allocates %.0f times per run, over the %d budget — a hot-path allocation has crept back in", avg, budget)
	}
}
