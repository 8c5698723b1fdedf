package steering_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// fanoutSetup is one configuration of the group-level fan-out under test.
type fanoutSetup struct {
	workers int
	fault   *faults.Plan // nil = injection off
}

// fanoutEnv is a fully instrumented pipeline on a frozen clock over a slice
// of a generated day, wired the way `steerq bundle` wires it.
type fanoutEnv struct {
	p    *steering.Pipeline
	reg  *obs.Registry
	jobs []*workload.Job
}

func newFanoutEnv(t *testing.T, s fanoutSetup) *fanoutEnv {
	t.Helper()
	w := workload.Generate(workload.ProfileA(0.0005, 9))
	reg := obs.NewWithClock(obs.FrozenClock())
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	opt.SetObs(reg)
	h := abtest.New(w.Cat, opt, 7)
	h.Executor.CheckPlans = true
	h.SetObs(reg)
	h.Workers = s.workers
	if s.fault != nil {
		in := faults.NewInjector(*s.fault)
		h.SetFaults(in)
		in.Publish(reg)
	}
	p := steering.NewPipeline(h, xrand.New(3).Derive("fanout-test"))
	p.MaxCandidates = 24
	p.ExecutePerJob = 3
	p.Workers = s.workers
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(reg, "workload", w.Name)
	p.Obs = reg
	jobs := w.Day(0)
	if len(jobs) > 24 {
		jobs = jobs[:24]
	}
	return &fanoutEnv{p: p, reg: reg, jobs: jobs}
}

// reps returns one representative per job group, in group order.
func (e *fanoutEnv) reps(t *testing.T) []*workload.Job {
	t.Helper()
	groups, err := steering.NewGrouper(e.p.Harness).Group(e.jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 4 {
		t.Fatalf("only %d job groups; the fan-out test is vacuous", len(groups))
	}
	out := make([]*workload.Job, len(groups))
	for i, g := range groups {
		out[i] = g.Jobs[0]
	}
	return out
}

func (e *fanoutEnv) snapshot(t *testing.T) string {
	t.Helper()
	data, err := e.reg.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// buildOutcome is everything one BuildBundle run lets a caller observe.
type buildOutcome struct {
	bytes []byte
	rep   steering.BundleReport
	snap  string
}

func buildWith(t *testing.T, s fanoutSetup) buildOutcome {
	t.Helper()
	e := newFanoutEnv(t, s)
	b, rep, err := e.p.BuildBundle(e.jobs, 4, 1700000000)
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buildOutcome{bytes: data, rep: rep, snap: e.snapshot(t)}
}

// analyzeEachWith runs the fan-out BuildBundle uses over the group
// representatives and returns the per-group analyses and errors.
func analyzeEachWith(t *testing.T, s fanoutSetup) ([]*steering.Analysis, []error) {
	t.Helper()
	e := newFanoutEnv(t, s)
	reps := e.reps(t)
	as := make([]*steering.Analysis, len(reps))
	errs := make([]error, len(reps))
	_ = e.p.AnalyzeEachCtx(context.Background(), reps, func(i int, a *steering.Analysis, err error) {
		as[i], errs[i] = a, err
	})
	return as, errs
}

var fanoutWorkers = []int{2, 8}

// TestBuildBundleParallelDeterminism is the determinism contract of the
// group-level fan-out: bundle bytes, BundleReport, every group's analysis and
// the frozen-clock obs snapshot are identical at Workers 1, 2 and 8 —
// fault-free and under a pinned fault seed.
func TestBuildBundleParallelDeterminism(t *testing.T) {
	plan := faults.DefaultPlan(1337)
	for _, tc := range []struct {
		name  string
		fault *faults.Plan
	}{
		{name: "fault-free"},
		{name: "fault-seed", fault: &plan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func(w int) fanoutSetup {
				return fanoutSetup{workers: w, fault: tc.fault}
			}
			base := buildWith(t, setup(1))
			if base.rep.Groups < 4 || base.rep.Steered == 0 {
				t.Fatalf("baseline report %+v; test is vacuous", base.rep)
			}
			for _, w := range fanoutWorkers {
				got := buildWith(t, setup(w))
				if !bytes.Equal(got.bytes, base.bytes) {
					t.Errorf("workers=%d: bundle bytes differ from workers=1", w)
				}
				if got.rep != base.rep {
					t.Errorf("workers=%d: report %+v, want %+v", w, got.rep, base.rep)
				}
				if got.snap != base.snap {
					t.Errorf("workers=%d: obs snapshot differs from workers=1\n--- w1 ---\n%s--- w%d ---\n%s",
						w, base.snap, w, got.snap)
				}
			}
			baseAs, baseErrs := analyzeEachWith(t, setup(1))
			injected := false
			for _, a := range baseAs {
				injected = injected || (a != nil && !a.Robustness.IsZero())
			}
			if tc.fault != nil && !injected {
				t.Fatal("fault plan injected nothing; test is vacuous")
			}
			for _, w := range fanoutWorkers {
				as, errs := analyzeEachWith(t, setup(w))
				for i := range baseAs {
					label := fmt.Sprintf("workers=%d group %d", w, i)
					if (errs[i] == nil) != (baseErrs[i] == nil) {
						t.Fatalf("%s: err %v, want %v", label, errs[i], baseErrs[i])
					}
					if baseAs[i] == nil {
						continue
					}
					requireSameFaultyAnalysis(t, label, baseAs[i], as[i])
					if as[i].Footprint != baseAs[i].Footprint || as[i].Sched != baseAs[i].Sched {
						t.Fatalf("%s: footprint/sched %+v %+v, want %+v %+v",
							label, as[i].Footprint, as[i].Sched, baseAs[i].Footprint, baseAs[i].Sched)
					}
				}
			}
		})
	}
}

// TestObsSnapshotWorkerDeterminism: under a frozen clock, the full
// observability state of a faulted bundle build — every counter, histogram
// bucket, gauge, span path and outcome — serializes byte-identically at any
// worker count, in both the JSON snapshot and the text exposition. Run under
// -race this also proves the sharded histogram and span recording are
// data-race free.
func TestObsSnapshotWorkerDeterminism(t *testing.T) {
	plan := faults.DefaultPlan(1337)
	build := func(workers int) (string, string) {
		e := newFanoutEnv(t, fanoutSetup{workers: workers, fault: &plan})
		if _, _, err := e.p.BuildBundle(e.jobs, 1, 0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var text bytes.Buffer
		if err := e.reg.Snapshot().Text(&text); err != nil {
			t.Fatal(err)
		}
		return e.snapshot(t), text.String()
	}
	baseJSON, baseText := build(1)
	for _, want := range []string{
		"steerq_pipeline_candidates_total",
		"steerq_cascades_rule_firings_total",
		"steerq_robustness_retries_total",
		"pipeline.recompile",
		"abtest.compile",
	} {
		if !strings.Contains(baseJSON, want) {
			t.Fatalf("instrumentation missing %q; determinism test is vacuous:\n%s", want, baseJSON)
		}
	}
	for _, workers := range fanoutWorkers {
		gotJSON, gotText := build(workers)
		if gotJSON != baseJSON {
			t.Errorf("workers=%d: JSON snapshot differs from workers=1\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, baseJSON, workers, gotJSON)
		}
		if gotText != baseText {
			t.Errorf("workers=%d: text exposition differs from workers=1\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, baseText, workers, gotText)
		}
	}
}

// TestBuildBundleFaultFallbackDeterminism: a group whose analysis fails for a
// reason other than cancellation still gets a fallback entry, counted in
// rep.Failed, at its own group index — identically at any worker count — and
// the build itself succeeds.
func TestBuildBundleFaultFallbackDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		plan := faults.Plan{Seed: seed, Compile: faults.Probs{Fail: 0.55}}
		setup := func(w int) fanoutSetup { return fanoutSetup{workers: w, fault: &plan} }
		_, errs := analyzeEachWith(t, setup(1))
		failed := 0
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
		if failed == 0 || failed == len(errs) {
			continue
		}
		e := newFanoutEnv(t, setup(1))
		b, rep, err := e.p.BuildBundle(e.jobs, 1, 0)
		if err != nil {
			t.Fatalf("seed %d: a failed group failed the build: %v", seed, err)
		}
		if rep.Failed != failed || rep.Steered+rep.Fallbacks+rep.Failed != rep.Groups {
			t.Fatalf("seed %d: report %+v, want %d failed groups", seed, rep, failed)
		}
		for gi, gerr := range errs {
			if ent := b.Entries[gi]; gerr != nil && (!ent.Fallback || !ent.Config.Equal(b.Default)) {
				t.Fatalf("seed %d: failed group %d is not a default fallback entry: %+v", seed, gi, ent)
			}
		}
		base := buildWith(t, setup(1))
		for _, w := range fanoutWorkers {
			got := buildWith(t, setup(w))
			if !bytes.Equal(got.bytes, base.bytes) || got.rep != base.rep {
				t.Fatalf("seed %d workers=%d: bundle or report %+v differs from workers=1's %+v", seed, w, got.rep, base.rep)
			}
		}
		return
	}
	t.Fatal("no seed in [0, 40) failed some but not all groups; rates or retry budget changed?")
}

// TestBuildBundleCanceledMidFanout cancels the build once its first analysis
// is under way: unstarted groups must be skipped and the build must return
// the wrapped context error, no bundle and no tallies.
func TestBuildBundleCanceledMidFanout(t *testing.T) {
	for _, workers := range []int{1, 8} {
		e := newFanoutEnv(t, fanoutSetup{workers: workers})
		groups := len(e.reps(t))
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			// The first span probe misses the compile cache.
			for e.p.Cache.Stats().Misses == 0 {
				runtime.Gosched()
			}
			cancel()
		}()
		b, rep, err := e.p.BuildBundleCtx(ctx, e.jobs, 1, 0)
		if b != nil || !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "steering: bundle build:") {
			t.Fatalf("workers=%d: bundle %v, err %v; want nil and the wrapped cancellation", workers, b, err)
		}
		if rep.Groups != groups || rep.Steered+rep.Fallbacks+rep.Failed != 0 {
			t.Fatalf("workers=%d: canceled build tallied entries: %+v", workers, rep)
		}

		// The fan-out itself: canceling from the first visit skips every
		// job that has not started, and the skipped jobs are never visited.
		e = newFanoutEnv(t, fanoutSetup{workers: workers})
		reps := e.reps(t)
		ctx, cancel = context.WithCancel(context.Background())
		var visited atomic.Int32
		err = e.p.AnalyzeEachCtx(ctx, reps, func(int, *steering.Analysis, error) {
			visited.Add(1)
			cancel()
		})
		if err == nil {
			t.Fatalf("workers=%d: canceled fan-out reported no error", workers)
		}
		if n := int(visited.Load()); n == 0 || n > workers || n >= len(reps) {
			t.Fatalf("workers=%d: %d of %d jobs visited after cancellation", workers, n, len(reps))
		}
	}
}

// TestGroupParallelDeterminism: Grouper.Group returns the same groups at 1
// and 8 workers, and when default compiles fail, the error of the first
// failing job in input order.
func TestGroupParallelDeterminism(t *testing.T) {
	render := func(workers int, jobs []*workload.Job) (string, error) {
		e := newFanoutEnv(t, fanoutSetup{workers: workers})
		groups, err := steering.NewGrouper(e.p.Harness).Group(jobs)
		var buf strings.Builder
		for _, g := range groups {
			fmt.Fprintf(&buf, "%s:", g.Signature.Hex())
			for _, j := range g.Jobs {
				fmt.Fprintf(&buf, " %s", j.ID)
			}
			buf.WriteByte('\n')
		}
		return buf.String(), err
	}
	jobs := newFanoutEnv(t, fanoutSetup{workers: 1}).jobs
	base, err := render(1, jobs)
	if err != nil || strings.Count(base, "\n") < 4 {
		t.Fatalf("serial grouping: err %v, groups:\n%s", err, base)
	}
	if got, err := render(8, jobs); err != nil || got != base {
		t.Fatalf("workers=8 grouping differs (err %v):\n%s--- want ---\n%s", err, got, base)
	}

	// Two jobs that cannot compile: the lower index's error must win.
	broken := append([]*workload.Job(nil), jobs...)
	for _, i := range []int{5, 11} {
		bad := *broken[i]
		bad.Root, bad.InstanceHash = nil, 0xbad0+uint64(i)
		broken[i] = &bad
	}
	for _, workers := range []int{1, 8} {
		_, err := render(workers, broken)
		if err == nil || !strings.Contains(err.Error(), broken[5].ID) {
			t.Fatalf("workers=%d: err %v, want the failure of %s", workers, err, broken[5].ID)
		}
	}
}

// TestCandidateLoopMatchesBruteForce is the serial-equivalence oracle for the
// in-order candidate loop: over generated jobs, the candidates it resolves
// through footprint classes and the compile cache are exactly the ones
// compiling every configuration yields.
func TestCandidateLoopMatchesBruteForce(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{workers: 1})
	e.p.MaxCandidates = 40
	opt := e.p.Harness.Opt
	checked, avoided := 0, 0
	for _, job := range e.jobs {
		a, err := e.p.Recompile(job)
		if err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		cfgs := steering.CandidateConfigs(a.Span, opt.Rules, e.p.MaxCandidates, e.p.Rand.Derive("job", job.ID))
		var want []steering.Candidate
		for _, cfg := range cfgs {
			res, err := opt.Optimize(job.Root, cfg)
			if errors.Is(err, cascades.ErrNoPlan) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", job.ID, err)
			}
			want = append(want, steering.Candidate{Config: cfg, EstCost: res.Cost, Signature: res.Signature})
		}
		if len(a.Candidates) != len(want) {
			t.Fatalf("%s: %d candidates, brute force finds %d", job.ID, len(a.Candidates), len(want))
		}
		for i := range want {
			if a.Candidates[i] != want[i] {
				t.Fatalf("%s: candidate %d = %+v, brute force %+v", job.ID, i, a.Candidates[i], want[i])
			}
		}
		if a.Footprint.Candidates != len(cfgs) || a.Footprint.Compiled+a.Footprint.Avoided != len(cfgs) {
			t.Fatalf("%s: footprint %+v does not account for %d configurations", job.ID, a.Footprint, len(cfgs))
		}
		checked++
		avoided += a.Footprint.Avoided
	}
	if checked < 20 || avoided == 0 {
		t.Fatalf("%d jobs checked, %d compiles avoided; oracle is vacuous", checked, avoided)
	}
}
