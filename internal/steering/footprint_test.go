package steering_test

import (
	"reflect"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

// TestFootprintSoundnessMetamorphic is the soundness contract the footprint
// memoization rests on: take any configuration, compile it, and flip bits the
// compile never read (rules outside the decision footprint) — an independent
// compile of the mutated configuration must produce a byte-identical result:
// same plan tree, same cost, same signature, same footprint. No-plan verdicts
// must be equally shareable, with matching footprints.
func TestFootprintSoundnessMetamorphic(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	r := xrand.New(2021).Derive("footprint-meta")

	nonRequired := h.Opt.Rules.NonRequired().Ones()
	compiled, noplans := 0, 0
	for trial := 0; trial < 40; trial++ {
		// Alternate densities: mostly-enabled configurations exercise real
		// plans, sparse ones drive the search into no-plan verdicts — the
		// footprint contract must hold for both.
		clearOdds := 4
		if trial%2 == 1 {
			clearOdds = 2
		}
		cfg := bitvec.AllSet(bitvec.Width)
		for _, id := range nonRequired {
			if r.Intn(clearOdds) == 0 {
				cfg.Clear(id)
			}
		}
		res, err := h.Opt.Optimize(job.Root, cfg)
		if res == nil {
			t.Fatalf("trial %d: nil result (err=%v); footprint lost", trial, err)
		}

		// Mutate every bit outside the footprint with probability 1/2: by the
		// soundness claim none of them can matter.
		mut := cfg
		flipped := 0
		for i := 0; i < bitvec.Width; i++ {
			if !res.Footprint.Get(i) && r.Intn(2) == 0 {
				mut.Assign(i, !mut.Get(i))
				flipped++
			}
		}
		if flipped == 0 {
			continue
		}
		res2, err2 := h.Opt.Optimize(job.Root, mut)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("trial %d: outcome flipped after mutating %d off-footprint bits: %v vs %v",
				trial, flipped, err, err2)
		}
		if res2 == nil || !res.Footprint.Equal(res2.Footprint) {
			t.Fatalf("trial %d: footprint changed after off-footprint mutation", trial)
		}
		if err != nil {
			noplans++
			continue
		}
		compiled++
		if res.Cost != res2.Cost {
			t.Fatalf("trial %d: cost %v vs %v", trial, res.Cost, res2.Cost)
		}
		if !res.Signature.Equal(res2.Signature) {
			t.Fatalf("trial %d: signature differs", trial)
		}
		if !reflect.DeepEqual(res.Plan, res2.Plan) {
			t.Fatalf("trial %d: plan tree differs after off-footprint mutation", trial)
		}
	}
	if compiled == 0 {
		t.Fatal("no configuration compiled; metamorphic check is vacuous")
	}
	t.Logf("checked %d compiled + %d no-plan pairs", compiled, noplans)
}

// TestFootprintExcludesRequired: Required rules are always on and never
// consult the configuration, so they must never appear in a footprint — and
// every non-required signature bit must (a rule cannot fire without its
// enabled-bit having been read).
func TestFootprintExcludesRequired(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)

	res, err := h.Opt.Optimize(job.Root, h.Opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Footprint.IsEmpty() {
		t.Fatal("default compile read no enabled-bits; footprint instrumentation is dead")
	}
	var required bitvec.Vector
	for _, ri := range h.Opt.Rules.Infos() {
		if ri.Category == cascades.Required {
			required.Set(ri.ID)
		}
	}
	if !res.Footprint.And(required).IsEmpty() {
		t.Fatalf("footprint contains required rules: %v", res.Footprint.And(required).Ones())
	}
	if fired := res.Signature.AndNot(required); !res.Footprint.Contains(fired) {
		t.Fatalf("signature bits %v fired without being read", fired.AndNot(res.Footprint).Ones())
	}
}

// TestFootprintClasses exercises the compile cache as the index of a job's
// footprint classes: re-putting an existing projection is a no-op, any
// configuration agreeing on the footprint bits resolves to the class, classes
// are scanned in insertion order, and an empty footprint matches every
// configuration.
func TestFootprintClasses(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(4)
	if _, ok := c.Get(fp, bitvec.New(1, 2)); ok {
		t.Fatal("empty cache claimed a hit")
	}

	// Class A: footprint {0,1}, representative has bit 0 set, bit 1 clear.
	vA := steering.CompileValue{Cost: 1, Footprint: bitvec.New(0, 1), OK: true}
	c.Put(fp, bitvec.New(0, 7), vA)
	c.Put(fp, bitvec.New(0, 9), vA) // same projection onto {0,1}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("same projection stored twice: %+v", st)
	}
	// Any config with bit 0 set and bit 1 clear resolves to A, whatever the
	// other bits say.
	if v, ok := c.Get(fp, bitvec.New(0, 42, 200)); !ok || v.Cost != 1 {
		t.Fatalf("projected lookup failed: ok=%v v=%+v", ok, v)
	}
	// Disagreeing on a footprint bit must miss.
	if _, ok := c.Get(fp, bitvec.New(1, 0)); ok {
		t.Fatal("lookup matched despite footprint-bit disagreement")
	}

	// Class B: empty footprint — matches everything A does not claim, in
	// insertion order (A first).
	c.Put(fp, bitvec.New(100), steering.CompileValue{Cost: 2, OK: false})
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("empty-footprint class not stored: %+v", st)
	}
	if v, ok := c.Get(fp, bitvec.New(1)); !ok || v.Cost != 2 {
		t.Fatalf("empty footprint should match any config, got ok=%v v=%+v", ok, v)
	}
	if v, ok := c.Get(fp, bitvec.New(0)); !ok || v.Cost != 1 {
		t.Fatalf("insertion order violated: got %+v", v)
	}
}
