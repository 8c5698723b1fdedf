package steering_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/faults"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// trialConfigs returns the job's default configuration and n candidate
// configurations drawn over its span.
func trialConfigs(t *testing.T, e *fanoutEnv, job *workload.Job, n int) []bitvec.Vector {
	t.Helper()
	opt := e.p.Harness.Opt
	span, err := steering.JobSpan(opt, job.Root)
	if err != nil {
		t.Fatalf("%s: %v", job.ID, err)
	}
	return append([]bitvec.Vector{opt.Rules.DefaultConfig()}, steering.CandidateConfigs(span, opt.Rules, n, xrand.New(5))...)
}

// TestTrialPathMatchesRunConfig: Pipeline.Trial is Harness.RunConfigCtx
// through the compile cache, field for field and with the same fault record,
// on a cold cache and on a warm one, with and without fault injection. A
// trial whose class the cache keeps a plan for compiles nothing, so it draws
// no compile-site decision: it replays as RunConfigCtx under the plan's exec
// faults alone.
func TestTrialPathMatchesRunConfig(t *testing.T) {
	harsh := faults.Plan{Seed: 1337, Compile: faults.Probs{Fail: 0.3, Hang: 0.05, Corrupt: 0.15}, Exec: faults.Probs{Fail: 0.3}}
	for _, tc := range []struct {
		name  string
		fault *faults.Plan
	}{{"clean", nil}, {"faulted", &harsh}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newFanoutEnv(t, fanoutSetup{fault: tc.fault})
			// The replays' own harnesses: the full plan for a trial that
			// compiles, its exec faults alone for one the cache answers.
			compiling, kept := newFanoutEnv(t, fanoutSetup{fault: tc.fault}).p.Harness, newFanoutEnv(t, fanoutSetup{}).p.Harness
			if tc.fault != nil {
				kept = newFanoutEnv(t, fanoutSetup{fault: &faults.Plan{Seed: tc.fault.Seed, Exec: tc.fault.Exec}}).p.Harness
			}
			ctx := context.Background()
			jobs := e.reps(t)[:4]
			cfgs := make([][]bitvec.Vector, len(jobs))
			for i, job := range jobs {
				cfgs[i] = trialConfigs(t, e, job, 4)
			}
			hits, misses := 0, 0
			for _, pass := range []string{"cold", "warm"} {
				var got, want faults.Record
				for i, job := range jobs {
					for k, cfg := range cfgs[i] {
						tag := fmt.Sprintf("%s/t%d", job.ID, k)
						v, ok := e.p.Cache.Get(fingerprintOf(job), cfg)
						replay := compiling
						if ok && v.Plan != nil {
							replay = kept
							hits++
						} else {
							misses++
						}
						tr := e.p.Trial(ctx, job, cfg, tag, &got)
						requireSameTrial(t, pass+" "+tag, tr, replay.RunConfigCtx(ctx, job.Root, cfg, job.Day, tag, &want))
					}
				}
				if got != want {
					t.Fatalf("%s pass: fault record %+v, replayed %+v", pass, got, want)
				}
				if tc.fault != nil && (got.CompileRetries == 0 || got.ExecRetries == 0) {
					t.Fatalf("%s pass drew no compile or exec retries (%+v); test is vacuous", pass, got)
				}
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("%d hits, %d misses; test is vacuous", hits, misses)
			}
		})
	}
}

// requireSameComparisons fails unless two extrapolations compared the same
// jobs with the same trials.
func requireSameComparisons(t *testing.T, label string, got, want []steering.Comparison) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d comparisons, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Job != w.Job || math.Float64bits(g.PctChange) != math.Float64bits(w.PctChange) {
			t.Fatalf("%s: comparison %d is %s %+.3f%%, want %s %+.3f%%", label, i, g.Job.ID, g.PctChange, w.Job.ID, w.PctChange)
		}
		requireSameTrial(t, label+" "+g.Job.ID+" default", g.Default, w.Default)
		requireSameTrial(t, label+" "+g.Job.ID+" new", g.New, w.New)
	}
}

// TestTrialPathExtrapolate: Extrapolate gives the same comparisons on a
// cached pipeline (cold and warm), on one without a cache, and as pairs of
// RunConfigCtx runs under the same tags.
func TestTrialPathExtrapolate(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{})
	h := e.p.Harness
	ctx := context.Background()
	groups, err := e.p.Grouper().Group(e.jobs)
	if err != nil {
		t.Fatal(err)
	}
	jobs := groups[0].Jobs
	cfg := trialConfigs(t, e, jobs[0], 1)[1]
	var want []steering.Comparison
	for _, j := range jobs {
		def := h.RunConfigCtx(ctx, j.Root, h.Opt.Rules.DefaultConfig(), j.Day, steering.DefaultTag(j.ID), nil)
		alt := h.RunConfigCtx(ctx, j.Root, cfg, j.Day, j.ID+"/extrapolated", nil)
		if def.Err != nil || alt.Err != nil {
			continue
		}
		pct := 100 * (alt.Metrics.RuntimeSec - def.Metrics.RuntimeSec) / def.Metrics.RuntimeSec
		want = append(want, steering.Comparison{Job: j, Default: def, New: alt, PctChange: pct})
	}
	if len(want) < 2 {
		t.Fatalf("%d comparisons; test is vacuous", len(want))
	}
	uncached := *e.p
	uncached.Cache = nil
	requireSameComparisons(t, "uncached", steering.Extrapolate(&uncached, cfg, jobs), want)
	requireSameComparisons(t, "cold", steering.Extrapolate(e.p, cfg, jobs), want)
	requireSameComparisons(t, "warm", steering.Extrapolate(e.p, cfg, jobs), want)
}

// TestTrialPathSecondPassCompilesNothing: over one analysis, a second
// Extrapolate, IterativeSearch and ProbeIndependence return what the first
// pass did without one optimizer call — their compiles and trials all go
// through the pipeline's compile cache.
func TestTrialPathSecondPassCompilesNothing(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{workers: 1})
	groups, err := e.p.Grouper().Group(e.jobs)
	if err != nil {
		t.Fatal(err)
	}
	type pass struct {
		it  *steering.IterativeResult
		ind *steering.Independence
		ex  []steering.Comparison
	}
	run := func(a *steering.Analysis, jobs []*workload.Job) pass {
		it, err := steering.IterativeSearch(e.p, a)
		if err != nil {
			t.Fatalf("%s: %v", a.Job.ID, err)
		}
		ind, err := steering.ProbeIndependence(e.p, a)
		if err != nil {
			t.Fatalf("%s: %v", a.Job.ID, err)
		}
		return pass{it, ind, steering.Extrapolate(e.p, a.BestConfig(steering.MetricRuntime).Config, jobs)}
	}
	var firstSpent uint64
	trials, probes, compared := 0, 0, 0
	for _, g := range groups[:4] {
		a, err := e.p.AnalyzeCtx(context.Background(), g.Jobs[0])
		if err != nil {
			t.Fatalf("%s: %v", g.Jobs[0].ID, err)
		}
		before := compiles(e.reg)
		first := run(a, g.Jobs)
		spent := compiles(e.reg) - before
		second := run(a, g.Jobs)
		if n := compiles(e.reg) - before - spent; n != 0 {
			t.Fatalf("%s: second pass made %d optimizer calls, want 0", a.Job.ID, n)
		}
		if !reflect.DeepEqual(second.it, first.it) || !reflect.DeepEqual(second.ind, first.ind) {
			t.Fatalf("%s: second pass found %+v / %+v, first %+v / %+v", a.Job.ID, second.it, second.ind, first.it, first.ind)
		}
		requireSameComparisons(t, a.Job.ID, second.ex, first.ex)
		firstSpent += spent
		trials += len(first.it.Trials)
		probes += first.ind.Compilations
		compared += len(first.ex)
	}
	if firstSpent == 0 || trials == 0 || probes == 0 || compared == 0 {
		t.Fatalf("first passes: %d optimizer calls, %d iterative trials, %d probes, %d comparisons; test is vacuous", firstSpent, trials, probes, compared)
	}
}

// TestExtrapolateSkipsUncompilable: a configuration the job cannot compile
// under yields no comparison.
func TestExtrapolateSkipsUncompilable(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	// A configuration that cannot compile (all join impls off).
	cfg := h.Opt.Rules.DefaultConfig()
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		cfg.Clear(id)
	}
	p := steering.NewPipeline(h, xrand.New(1))
	p.Cache = steering.NewCompileCache()
	out := steering.Extrapolate(p, cfg, []*workload.Job{job})
	if len(out) != 0 {
		t.Fatalf("uncompilable extrapolation produced %d comparisons", len(out))
	}
}
