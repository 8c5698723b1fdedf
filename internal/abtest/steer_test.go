package abtest_test

import (
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/scopeql"
)

// mapSteerer is a fake serving tier: a fixed signature -> config map.
type mapSteerer struct {
	decisions map[bitvec.Key]bitvec.Vector
}

func (m *mapSteerer) Decide(sig bitvec.Vector) (bitvec.Vector, bool) {
	cfg, ok := m.decisions[sig.Key()]
	return cfg, ok
}

func TestRunSteeredConsultsSteerer(t *testing.T) {
	h, cat := harness(t)
	root, err := scopeql.Compile(script, cat)
	if err != nil {
		t.Fatal(err)
	}
	def := h.Opt.Rules.DefaultConfig()
	res, err := h.Opt.OptimizeCost(root, def)
	if err != nil {
		t.Fatal(err)
	}
	sig := res.Signature

	// No steerer wired: plain default execution, not steered.
	tr, steered := h.RunSteered(root, 0, "s0")
	if steered || tr.Err != nil || !tr.Config.Equal(def) {
		t.Fatalf("unsteered run: steered=%v cfg=%s err=%v", steered, tr.Config.Hex(), tr.Err)
	}

	// A steerer that knows this signature redirects the compile when the
	// optimizer does not expect its answer to cost more than the default;
	// an answer it expects to cost more runs the default, unsteered. Each
	// candidate answer clears one enabled optional bit.
	var alt, costlier bitvec.Vector
	for _, id := range h.Opt.Rules.NonRequired().Ones() {
		if !def.Get(id) {
			continue
		}
		cfg := def
		cfg.Clear(id)
		r, err := h.Opt.OptimizeCost(root, cfg)
		switch {
		case err != nil:
		case r.Cost <= res.Cost && alt.IsEmpty():
			alt = cfg
		case r.Cost > res.Cost && costlier.IsEmpty():
			costlier = cfg
		}
	}
	if alt.IsEmpty() || costlier.IsEmpty() {
		t.Fatal("could not derive an admitted and a costlier alternative config")
	}
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{sig.Key(): alt}}
	tr, steered = h.RunSteered(root, 0, "s1")
	if !steered {
		t.Fatal("known signature not steered")
	}
	if !tr.Config.Equal(alt) {
		t.Fatalf("steered config %s, want %s", tr.Config.Hex(), alt.Hex())
	}
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{sig.Key(): costlier}}
	tr, steered = h.RunSteered(root, 0, "s4")
	if steered || tr.Err != nil || !tr.Config.Equal(def) {
		t.Fatalf("costlier answer: steered=%v cfg=%s err=%v, want the default %s", steered, tr.Config.Hex(), tr.Err, def.Hex())
	}

	// An answer with no plan (no TOP implementation enabled) runs the
	// default too.
	topRoot, err := scopeql.Compile(`x = SELECT TOP 5 k FROM "s" ORDER BY k; OUTPUT x TO "o";`, cat)
	if err != nil {
		t.Fatal(err)
	}
	topRes, err := h.Opt.OptimizeCost(topRoot, def)
	if err != nil {
		t.Fatal(err)
	}
	var empty bitvec.Vector
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{topRes.Signature.Key(): empty}}
	tr, steered = h.RunSteered(topRoot, 0, "s5")
	if steered || tr.Err != nil || !tr.Config.Equal(def) {
		t.Fatalf("plan-less answer: steered=%v cfg=%s err=%v, want the default %s", steered, tr.Config.Hex(), tr.Err, def.Hex())
	}

	// A steerer that misses the signature leaves the run unsteered.
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{}}
	tr, steered = h.RunSteered(root, 0, "s2")
	if steered || !tr.Config.Equal(def) {
		t.Fatalf("missed signature steered: %v %s", steered, tr.Config.Hex())
	}

	// A steerer that answers with the default is reported unsteered: the
	// executor must not claim a steering decision that changes nothing.
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{sig.Key(): def}}
	_, steered = h.RunSteered(root, 0, "s3")
	if steered {
		t.Fatal("default-config answer reported as steered")
	}
}
