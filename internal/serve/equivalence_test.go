package serve

import (
	"bytes"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/cost"
	"steerq/internal/loadgen"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// buildPipeline builds a discovery pipeline over a small generated workload,
// the same shape the offline `steerq bundle build` command wires up.
func buildPipeline(workers int) (*steering.Pipeline, *abtest.Harness, []*workload.Job) {
	w := workload.Generate(workload.ProfileB(0.002, 5))
	h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 7)
	p := steering.NewPipeline(h, xrand.New(11).Derive("equiv-test"))
	p.MaxCandidates = 20
	p.ExecutePerJob = 3
	p.Workers = workers
	jobs := w.Day(0)
	if len(jobs) > 14 {
		jobs = jobs[:14]
	}
	return p, h, jobs
}

// TestServingEquivalence is the metamorphic serving-path battery: the
// offline bundle build must be byte-identical at any worker count, and the
// decision for every job must be identical whether read from the bundle
// directly, through the in-process SDK, or over HTTP — the three deployment
// surfaces can never disagree.
func TestServingEquivalence(t *testing.T) {
	p1, h, jobs := buildPipeline(1)
	b1, rep, err := p1.BuildBundle(jobs, 42, 1700000000)
	if err != nil {
		t.Fatal(err)
	}
	p8, _, jobs8 := buildPipeline(8)
	b8, rep8, err := p8.BuildBundle(jobs8, 42, 1700000000)
	if err != nil {
		t.Fatal(err)
	}

	// Metamorphic leg 1: worker count must not leak into the artifact.
	if !bytes.Equal(encodeBundle(t, b1), encodeBundle(t, b8)) {
		t.Fatal("bundle bytes differ between Workers=1 and Workers=8")
	}
	if rep != rep8 {
		t.Fatalf("bundle reports differ: %+v vs %+v", rep, rep8)
	}
	if rep.Jobs != len(jobs) || rep.Groups != len(b1.Entries) ||
		rep.Steered+rep.Fallbacks+rep.Failed != rep.Groups {
		t.Fatalf("report does not add up: %+v over %d entries", rep, len(b1.Entries))
	}
	if rep.Failed != 0 {
		t.Fatalf("analyses failed without fault injection: %+v", rep)
	}

	// Offline oracle: the bundle's own entry map.
	offline := make(map[bitvec.Key]bundle.Entry, len(b1.Entries))
	for _, e := range b1.Entries {
		offline[e.Signature.Key()] = e
	}

	reg := obs.NewWithClock(obs.FrozenClock())
	srv, base := startServer(t, reg)
	sdk := srv.SDK()
	if err := sdk.Load(b1); err != nil {
		t.Fatal(err)
	}

	// Metamorphic leg 2: offline == SDK == HTTP for every job in the
	// workload — hits and fallbacks — and for a miss; the HTTP side goes
	// through the Steer client and must decode to the SDK's very Decision.
	g := steering.NewGrouper(h)
	for _, job := range jobs {
		sig, err := g.DefaultSignature(job)
		if err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		e, ok := offline[sig.Key()]
		if !ok {
			t.Fatalf("%s: signature missing from bundle — groups did not cover the workload", job.ID)
		}

		d, ok := sdk.Lookup(sig)
		if !ok {
			t.Fatalf("%s: SDK lookup not ready", job.ID)
		}
		if d.Version != 42 || !d.Config.Equal(e.Config) {
			t.Fatalf("%s: SDK decision %s != offline %s", job.ID, d.Config.Hex(), e.Config.Hex())
		}
		if d.Kind == KindDefault {
			t.Fatalf("%s: covered job resolved as a miss", job.ID)
		}
		if (d.Kind == KindFallback) != e.Fallback {
			t.Fatalf("%s: kind %v vs fallback flag %v", job.ID, d.Kind, e.Fallback)
		}

		hd, err := Steer(base, sig)
		if err != nil {
			t.Fatalf("%s: HTTP steer: %v", job.ID, err)
		}
		if hd != d {
			t.Fatalf("%s: HTTP decision %+v != SDK %+v", job.ID, hd, d)
		}
	}

	// A signature the bundle does not hold resolves to the same default
	// decision in the SDK and over HTTP.
	known := make([]bitvec.Vector, len(b1.Entries))
	for i, e := range b1.Entries {
		known[i] = e.Signature
	}
	miss := loadgen.MissSignatures(3, 1, known)[0]
	d, _ := sdk.Lookup(miss)
	if hd, err := Steer(base, miss); err != nil || hd != d || d.Kind != KindDefault || !d.Config.Equal(b1.Default) {
		t.Fatalf("miss: HTTP %+v (err %v), SDK %+v, default %s", hd, err, d, b1.Default.Hex())
	}

	// Metamorphic leg 3: the steered executor compiles under exactly the
	// bundle's decision when abtest.Admit admits it, and under the default
	// otherwise — RunSteered through the SDK agrees with the entry and the
	// rule. The jobs checked include one of each kind.
	h.Steer = sdk
	def := h.Opt.Rules.DefaultConfig()
	var admitted, refused int
	for _, job := range jobs {
		sig, err := g.DefaultSignature(job)
		if err != nil {
			t.Fatal(err)
		}
		e := offline[sig.Key()]
		want := def
		if !e.Config.Equal(def) {
			dr, err := h.Opt.OptimizeCost(job.Root, def)
			if err != nil {
				t.Fatal(err)
			}
			if er, err := h.Opt.OptimizeCost(job.Root, e.Config); abtest.Admit(dr.Cost, er.Cost, err) {
				want = e.Config
				admitted++
			} else {
				refused++
			}
		}
		tr, steered := h.RunSteered(job.Root, 0, job.ID)
		if tr.Err != nil {
			t.Fatalf("%s: steered trial failed: %v", job.ID, tr.Err)
		}
		if !tr.Config.Equal(want) {
			t.Fatalf("%s: executed config %s, want %s (bundle decision %s)", job.ID, tr.Config.Hex(), want.Hex(), e.Config.Hex())
		}
		if w := !want.Equal(def); steered != w {
			t.Fatalf("%s: steered=%v, want %v", job.ID, steered, w)
		}
	}
	if admitted == 0 || refused == 0 {
		t.Fatalf("leg 3 checked %d admitted and %d refused steered entries, want at least one of each", admitted, refused)
	}

	// With no bundle live the executor behaves exactly unsteered.
	h.Steer = NewSDK(nil)
	tr, steered := h.RunSteered(jobs[0].Root, 0, jobs[0].ID)
	if steered || tr.Err != nil || !tr.Config.Equal(def) {
		t.Fatalf("unloaded steerer changed execution: steered=%v cfg=%s err=%v",
			steered, tr.Config.Hex(), tr.Err)
	}
}
