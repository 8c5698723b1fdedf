package faults_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
	"steerq/internal/xrand"
)

// compiledResult optimizes a small script under the default configuration so
// corruption tests work on a genuine physical plan.
func compiledResult(t *testing.T) (*cascades.Optimizer, *cascades.Result) {
	t.Helper()
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "f",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 2000, TrueDistinct: 2000, Min: 0, Max: 2000},
			{Name: "v", Distinct: 500, TrueDistinct: 500, Min: 0, Max: 500},
		},
		BaseRows: 1e6, BytesPerRow: 50, GrowthPerDay: 1,
	})
	root, err := scopeql.Compile(`
a = SELECT k, SUM(v) AS total FROM "f" WHERE v > 10 GROUP BY k;
OUTPUT a TO "out/x";
`, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := rules.NewOptimizer(cost.NewEstimated(cat))
	res, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return opt, res
}

func TestCorruptPlanBreaksValidationNotOriginal(t *testing.T) {
	_, res := compiledResult(t)
	if err := cascades.Validate(res.Plan, 0); err != nil {
		t.Fatalf("fresh plan invalid: %v", err)
	}
	orig := res.Plan.String()
	for i := 0; i < 20; i++ {
		bad := faults.CorruptPlan(res.Plan, xrand.New(uint64(i)).Derive("corrupt-test"))
		if err := cascades.Validate(bad, 0); err == nil {
			t.Fatalf("corruption %d produced a plan that still validates", i)
		}
	}
	if res.Plan.String() != orig {
		t.Fatal("CorruptPlan mutated the original plan")
	}
	if err := cascades.Validate(res.Plan, 0); err != nil {
		t.Fatalf("original no longer validates after corruptions: %v", err)
	}
}

func TestClonePhysPreservesSharing(t *testing.T) {
	shared := &plan.PhysNode{Op: plan.PhysExtract, Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 2}}
	root := &plan.PhysNode{Op: plan.PhysMultiImpl, Children: []*plan.PhysNode{shared, shared},
		Dist: plan.Distribution{Kind: plan.DistSingleton, DOP: 1}}
	cp := plan.ClonePhys(root)
	if cp == root || cp.Children[0] == shared {
		t.Fatal("clone aliases the original")
	}
	if cp.Children[0] != cp.Children[1] {
		t.Fatal("clone lost internal sharing")
	}
	cp.Children[0].Dist.DOP = 99
	if shared.Dist.DOP != 2 {
		t.Fatal("mutating the clone reached the original")
	}
}

// decideKind scans attempt tags until the injector takes the wanted decision
// at attempt 0, so tests can pin each fault path deterministically.
func decideKind(t *testing.T, in *faults.Injector, want faults.Kind) string {
	t.Helper()
	for i := 0; i < 5000; i++ {
		tag := fmt.Sprintf("probe%d", i)
		if in.Decide(faults.SiteCompile, tag, 0) == want {
			return tag
		}
	}
	t.Fatalf("no tag decides %v at attempt 0", want)
	return ""
}

func TestCompileAttemptFaultPaths(t *testing.T) {
	_, res := compiledResult(t)
	in := faults.NewInjector(faults.Plan{Seed: 8, Compile: faults.Probs{Fail: 0.2, Hang: 0.2, Corrupt: 0.2}})
	fresh := func(bool) (*cascades.Result, error) {
		r := *res // shallow copy so injected corruption cannot leak across subtests
		return &r, nil
	}

	t.Run("fail", func(t *testing.T) {
		tag := decideKind(t, in, faults.KindFail)
		_, err := in.CompileAttempt(context.Background(), tag, 0, fresh)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
	})
	t.Run("hang", func(t *testing.T) {
		tag := decideKind(t, in, faults.KindHang)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, err := in.CompileAttempt(ctx, tag, 0, fresh)
		if !errors.Is(err, faults.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		tag := decideKind(t, in, faults.KindCorrupt)
		_, err := in.CompileAttempt(context.Background(), tag, 0, fresh)
		if !errors.Is(err, faults.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt: validation must catch the corruption", err)
		}
	})
	t.Run("clean", func(t *testing.T) {
		tag := decideKind(t, in, faults.KindNone)
		got, err := in.CompileAttempt(context.Background(), tag, 0, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if got.Plan != res.Plan {
			t.Fatal("clean attempt did not hand back the compiled plan")
		}
	})
	t.Run("compile-error-passthrough", func(t *testing.T) {
		tag := decideKind(t, in, faults.KindNone)
		genuine := errors.New("cascades: no plan")
		_, err := in.CompileAttempt(context.Background(), tag, 0, func(bool) (*cascades.Result, error) {
			return nil, genuine
		})
		if !errors.Is(err, genuine) {
			t.Fatalf("err = %v, want the compiler's own error", err)
		}
	})
	t.Run("nil-injector", func(t *testing.T) {
		var off *faults.Injector
		got, err := off.CompileAttempt(context.Background(), "any", 0, fresh)
		if err != nil || got.Plan != res.Plan {
			t.Fatalf("nil injector altered the compile: (%v, %v)", got, err)
		}
	})
}

// TestCompileAttemptBuildsPlanUnderInjection pins where the plan-under-faults
// rule lives: with injection active, CompileAttempt asks even a caller that
// keeps only the costed verdict for a plan, so a corrupt decision corrupts it
// and validation rejects it; with injection off the compile stays plan-less.
func TestCompileAttemptBuildsPlanUnderInjection(t *testing.T) {
	_, res := compiledResult(t)
	// costOnly compiles the way a candidate probe does: the plan is built
	// only when the attempt asks for one.
	var asked []bool
	costOnly := func(plan bool) (*cascades.Result, error) {
		asked = append(asked, plan)
		r := *res
		if !plan {
			r.Plan = nil
		}
		return &r, nil
	}
	in := faults.NewInjector(faults.Plan{Seed: 8, Compile: faults.Probs{Fail: 0.2, Hang: 0.2, Corrupt: 0.2}})

	got, err := in.CompileAttempt(context.Background(), decideKind(t, in, faults.KindNone), 0, costOnly)
	if err != nil || got.Plan == nil {
		t.Fatalf("clean attempt under injection: plan %v, err %v; want a validated plan", got.Plan, err)
	}
	if _, err := in.CompileAttempt(context.Background(), decideKind(t, in, faults.KindCorrupt), 0, costOnly); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("corrupt attempt under injection: err %v, want ErrCorrupt", err)
	}
	var off *faults.Injector
	got, err = off.CompileAttempt(context.Background(), "any", 0, costOnly)
	if err != nil || got.Plan != nil {
		t.Fatalf("injection off: plan %v, err %v; want a plan-less verdict", got.Plan, err)
	}
	if want := []bool{true, true, false}; fmt.Sprint(asked) != fmt.Sprint(want) {
		t.Fatalf("compile asked for a plan %v, want %v", asked, want)
	}
}
