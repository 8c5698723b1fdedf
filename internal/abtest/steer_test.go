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

	// A steerer that knows this signature redirects the compile. Flip one
	// non-required optional bit off so the config differs but still compiles.
	alt := def
	for _, id := range h.Opt.Rules.NonRequired().Ones() {
		if def.Get(id) {
			alt.Clear(id)
			break
		}
	}
	if alt.Equal(def) {
		t.Fatal("could not derive an alternative config")
	}
	h.Steer = &mapSteerer{decisions: map[bitvec.Key]bitvec.Vector{sig.Key(): alt}}
	tr, steered = h.RunSteered(root, 0, "s1")
	if !steered {
		t.Fatal("known signature not steered")
	}
	if !tr.Config.Equal(alt) {
		t.Fatalf("steered config %s, want %s", tr.Config.Hex(), alt.Hex())
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
