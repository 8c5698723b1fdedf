package cascades_test

import (
	"errors"
	"testing"

	"steerq/internal/cascades"
	"steerq/internal/rules"
)

// TestSessionOnScratchMatchesOptimize: sessions on one caller-owned arena —
// reused back to back, including across a no-plan failure — are
// byte-identical to pooled one-shot compiles of the same inputs. This is the
// contract the pipeline's per-worker arenas rest on.
func TestSessionOnScratchMatchesOptimize(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	base := opt.Rules.DefaultConfig()

	broken := base
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		broken.Clear(id)
	}

	sc := cascades.NewScratch()
	for pass := 0; pass < 3; pass++ {
		sess := opt.NewSession(sc, root)
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
			t.Fatalf("pass %d: arena compile diverged from pooled compile", pass)
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

// TestSessionNilScratch: a nil *Scratch falls back to the shared pool, so
// call sites can thread an optional arena without branching.
func TestSessionNilScratch(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	root := compile(t, cat, joinAggScript)
	want, err := opt.Optimize(root, opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := opt.NewSession(nil, root)
	defer sess.Close()
	got, err := sess.Optimize(opt.Rules.DefaultConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cost != got.Cost || !want.Signature.Equal(got.Signature) {
		t.Fatal("nil-scratch compile diverged")
	}
}
