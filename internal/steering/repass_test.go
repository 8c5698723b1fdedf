package steering_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/scopeql"
	"steerq/internal/steering"
	"steerq/internal/workload"
)

// compiles is the number of optimizer calls the registry has seen.
func compiles(reg *obs.Registry) uint64 {
	const name = "steerq_cascades_compiles_total"
	return reg.Counter(name, "outcome", "ok").Value() + reg.Counter(name, "outcome", "noplan").Value()
}

// spans is the number of recorded spans of one stage.
func spans(reg *obs.Registry, stage string) int {
	n := 0
	for _, sp := range reg.Snapshot().Spans {
		if sp.Stage == stage {
			n++
		}
	}
	return n
}

// recompiled returns copies of the jobs over roots freshly compiled from
// their script text, the way the benchmark feeds every pass: same
// fingerprints, no shared *plan.Node.
func recompiled(t *testing.T, e *fanoutEnv) []*workload.Job {
	t.Helper()
	out := make([]*workload.Job, len(e.jobs))
	for i, j := range e.jobs {
		root, err := scopeql.Compile(j.Script, e.p.Harness.Cat)
		if err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
		nj := *j
		nj.Root = root
		out[i] = &nj
	}
	return out
}

func encodedBundle(t *testing.T, e *fanoutEnv, jobs []*workload.Job) []byte {
	t.Helper()
	b, _, err := e.p.BuildBundle(jobs, 4, 1700000000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fingerprintOf(j *workload.Job) steering.JobFingerprint {
	return steering.JobFingerprint{Template: j.TemplateHash, Instance: j.InstanceHash, Inputs: j.InputsHash}
}

// plansKept counts the distinct plans e's cache holds for job under its
// default configuration and the candidate configurations of span — every
// class an analysis of job could have executed.
func plansKept(e *fanoutEnv, job *workload.Job, span bitvec.Vector) int {
	rs := e.p.Harness.Opt.Rules
	cfgs := steering.CandidateConfigs(span, rs, e.p.MaxCandidates, e.p.Rand.Derive("job", job.ID))
	kept := make(map[*plan.PhysNode]bool)
	for _, cfg := range append(cfgs, rs.DefaultConfig()) {
		if v, ok := e.p.Cache.Get(fingerprintOf(job), cfg); ok && v.Plan != nil {
			kept[v.Plan] = true
		}
	}
	return len(kept)
}

// requireSameTrial holds two trials equal field for field, floats by their
// IEEE bits.
func requireSameTrial(t *testing.T, label string, got, want abtest.Trial) {
	t.Helper()
	bits := func(tr abtest.Trial) [6]uint64 {
		m := tr.Metrics
		return [6]uint64{math.Float64bits(tr.EstCost), math.Float64bits(m.RuntimeSec), math.Float64bits(m.CPUSec),
			math.Float64bits(m.IOTimeSec), math.Float64bits(m.IOBytes), math.Float64bits(m.VertexSeconds)}
	}
	if got.Config != want.Config || got.Signature != want.Signature || got.Footprint != want.Footprint ||
		bits(got) != bits(want) || got.Metrics.Vertices != want.Metrics.Vertices ||
		(got.Err == nil) != (want.Err == nil) || got.Attempts != want.Attempts || got.FellBack != want.FellBack {
		t.Fatalf("%s: trial %+v, want %+v", label, got, want)
	}
}

// TestRepassCompilesNothing: a second BuildBundle on a warm pipeline — over
// roots compiled afresh from the scripts — reproduces the bundle byte for
// byte without one optimizer call, executes exactly the trials the first pass
// did, and the cache retains at most ExecutePerJob+1 plans per analysed job.
func TestRepassCompilesNothing(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{}) // Workers 0: STEERQ_WORKERS decides
	cold := encodedBundle(t, e, e.jobs)
	compiled, trials, entries := compiles(e.reg), spans(e.reg, "abtest.exec"), e.p.Cache.Stats().Entries
	if compiled == 0 || trials == 0 {
		t.Fatalf("cold pass: %d compiles, %d trials; test is vacuous", compiled, trials)
	}
	warm := encodedBundle(t, e, recompiled(t, e))
	if !bytes.Equal(warm, cold) {
		t.Error("re-pass bundle differs from the cold pass's")
	}
	if n := compiles(e.reg) - compiled; n != 0 {
		t.Errorf("re-pass made %d optimizer calls, want 0", n)
	}
	if n := spans(e.reg, "abtest.exec") - trials; n != trials {
		t.Errorf("re-pass executed %d trials, the cold pass %d", n, trials)
	}
	if n := e.p.Cache.Stats().Entries; n != entries {
		t.Errorf("re-pass grew the cache from %d to %d entries", entries, n)
	}
	steered := 0
	for _, job := range e.reps(t) {
		a, err := e.p.Recompile(job)
		if err != nil {
			t.Fatal(err)
		}
		n := plansKept(e, job, a.Span)
		if n < 1 || n > e.p.ExecutePerJob+1 {
			t.Errorf("%s: %d plans kept, want 1 to %d", job.ID, n, e.p.ExecutePerJob+1)
		}
		if n > 1 {
			steered++
		}
	}
	if steered == 0 {
		t.Fatal("no job keeps an alternative's plan; test is vacuous")
	}
}

// TestTrialFromCachedPlanMatchesFresh: for every group representative and
// each of its executed configurations, the trial a re-analysis runs from the
// plan kept in the cache equals the trial a fresh compile gives, field for
// field, and the kept plan explains exactly like a freshly compiled one.
func TestTrialFromCachedPlanMatchesFresh(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{workers: 1})
	h := e.p.Harness
	ctx := context.Background()
	checked := 0
	for _, job := range e.reps(t) {
		if _, err := e.p.Analyze(job); err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		before := compiles(e.reg)
		a, err := e.p.Analyze(job)
		if err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		if n := compiles(e.reg) - before; n != 0 {
			t.Fatalf("%s: re-analysis made %d optimizer calls", job.ID, n)
		}
		cfgs := []bitvec.Vector{h.Opt.Rules.DefaultConfig()}
		tags := []string{job.ID + "/default"}
		got := []abtest.Trial{a.Default}
		for i, c := range a.Selected {
			cfgs = append(cfgs, c.Config)
			tags = append(tags, fmt.Sprintf("%s/alt%d", job.ID, i))
			got = append(got, a.Trials[i])
		}
		for i, cfg := range cfgs {
			requireSameTrial(t, tags[i], got[i], h.RunConfigCtx(ctx, job.Root, cfg, job.Day, tags[i], nil))
			v, ok := e.p.Cache.Get(fingerprintOf(job), cfg)
			if !ok || v.Plan == nil {
				t.Fatalf("%s: no plan kept in the cache", tags[i])
			}
			res, err := h.Opt.Optimize(job.Root, cfg)
			if err != nil {
				t.Fatalf("%s: %v", tags[i], err)
			}
			kept, fresh := h.Executor.Explain(v.Plan, job.Day, tags[i]), h.Executor.Explain(res.Plan, job.Day, tags[i])
			if kept.String() != fresh.String() {
				t.Fatalf("%s: kept plan explains differently:\n%s--- fresh ---\n%s", tags[i], kept, fresh)
			}
			checked++
		}
	}
	if checked < 8 {
		t.Fatalf("%d trials checked; test is vacuous", checked)
	}
}

// TestCachedPlanParallelExec: eight goroutines re-analysing one warm job
// execute the same kept plans at once; every analysis equals the serial one
// and none compiles. Under -race this holds exec to only reading a plan.
func TestCachedPlanParallelExec(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{workers: 1})
	job := e.reps(t)[0]
	base, err := e.p.Analyze(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Trials) == 0 {
		t.Fatal("no trials; test is vacuous")
	}
	before := compiles(e.reg)
	as := make([]*steering.Analysis, 8)
	errs := make([]error, len(as))
	var wg sync.WaitGroup
	for i := range as {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as[i], errs[i] = e.p.Analyze(job)
		}()
	}
	wg.Wait()
	for i, a := range as {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		requireSameAnalysis(t, fmt.Sprintf("goroutine %d", i), base, a)
	}
	if n := compiles(e.reg) - before; n != 0 {
		t.Fatalf("warm re-analyses made %d optimizer calls", n)
	}
}

// TestFaultedTrialsKeepNoPlans: with injection active the trial path is
// RunConfigCtx and nothing else — no plan is stored, by a whole BuildBundle
// or by the analyses, and every trial, fallback and the execute stage's
// robustness record are what replaying RunConfigCtx under the same tags
// gives (fault decisions are keyed by seed, site, tag and attempt).
func TestFaultedTrialsKeepNoPlans(t *testing.T) {
	plan := faults.DefaultPlan(1337)
	setup := fanoutSetup{fault: &plan}
	built := newFanoutEnv(t, setup)
	encodedBundle(t, built, built.jobs)

	e := newFanoutEnv(t, setup)
	h := newFanoutEnv(t, setup).p.Harness // the replay's own injector and registry
	ctx := context.Background()
	var total faults.Record
	for _, job := range e.reps(t) {
		a, err := e.p.Recompile(job)
		if err != nil {
			continue // the representative's default compile exhausted its budget
		}
		want := a.Robustness
		e.p.Execute(a)
		requireSameTrial(t, job.ID+"/default", a.Default,
			h.RunConfigCtx(ctx, job.Root, h.Opt.Rules.DefaultConfig(), job.Day, job.ID+"/default", nil))
		for i, c := range a.Selected {
			tag := fmt.Sprintf("%s/alt%d", job.ID, i)
			tr := h.RunConfigCtx(ctx, job.Root, c.Config, job.Day, tag, &want)
			if tr.Err != nil {
				want.Fallbacks++
				attempts := tr.Attempts
				tr = a.Default
				tr.Attempts, tr.FellBack = attempts, true
			}
			requireSameTrial(t, tag, a.Trials[i], tr)
		}
		if a.Robustness != want {
			t.Fatalf("%s: robustness %+v, replayed %+v", job.ID, a.Robustness, want)
		}
		total.Add(a.Robustness)
		if n := plansKept(e, job, a.Span) + plansKept(built, job, a.Span); n != 0 || len(a.Trials) == 0 {
			t.Fatalf("%s: %d trials ran under injection, %d plans stored", job.ID, len(a.Trials), n)
		}
	}
	if total.IsZero() {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}
}
