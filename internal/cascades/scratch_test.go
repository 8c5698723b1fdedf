package cascades_test

import (
	"errors"
	"testing"

	"steerq/internal/cascades"
	"steerq/internal/rules"
)

// TestSessionOnScratchMatchesOptimize: sessions opened back to back, each on
// an arena the previous one handed back to the pool — including after a
// no-plan failure — are byte-identical to one-shot compiles of the same
// inputs. The in-package TestCloseRetiresEverything pins the same property on
// one fixed arena.
func TestSessionOnScratchMatchesOptimize(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	base := opt.Rules.DefaultConfig()

	broken := base
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		broken.Clear(id)
	}

	for pass := 0; pass < 3; pass++ {
		sess := opt.NewSession(root)
		// Success case, plan materialized.
		want, err := opt.Optimize(root, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Optimize(base, true)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cost != got.Cost || !want.Signature.Equal(got.Signature) ||
			!want.Footprint.Equal(got.Footprint) || want.Plan.String() != got.Plan.String() {
			t.Fatalf("pass %d: session compile diverged from one-shot compile", pass)
		}
		// Cost-only through the same session.
		costed, err := sess.Optimize(base, false)
		if err != nil {
			t.Fatal(err)
		}
		if costed.Plan != nil || costed.Cost != want.Cost || !costed.Signature.Equal(want.Signature) {
			t.Fatalf("pass %d: plan-less compile diverged", pass)
		}
		// No-plan failure must leave the arena reusable and carry the footprint.
		wantFail, werr := opt.Optimize(root, broken)
		gotFail, gerr := sess.Optimize(broken, true)
		if !errors.Is(werr, cascades.ErrNoPlan) || !errors.Is(gerr, cascades.ErrNoPlan) {
			t.Fatalf("pass %d: broken config compiled: %v / %v", pass, werr, gerr)
		}
		if !wantFail.Footprint.Equal(gotFail.Footprint) {
			t.Fatalf("pass %d: no-plan footprints diverged", pass)
		}
		sess.Close()
	}
}
