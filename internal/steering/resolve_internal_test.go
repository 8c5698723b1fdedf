package steering

import (
	"context"
	"reflect"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// resolveEnv is a pipeline with a compile cache on a frozen-clock registry,
// wired the way `steerq bundle` wires it, over the first 24 jobs of a
// generated Workload A day and their group representatives.
type resolveEnv struct {
	p    *Pipeline
	reg  *obs.Registry
	jobs []*workload.Job
	reps []*workload.Job
}

func newResolveEnv(t *testing.T) *resolveEnv {
	t.Helper()
	w := workload.Generate(workload.ProfileA(0.0005, 9))
	reg := obs.NewWithClock(obs.FrozenClock())
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	opt.SetObs(reg)
	h := abtest.New(w.Cat, opt, 7)
	h.SetObs(reg)
	p := NewPipeline(h, xrand.New(3).Derive("resolve-test"))
	p.MaxCandidates, p.ExecutePerJob = 24, 3
	p.Cache = NewCompileCache()
	p.Cache.SetObs(reg, "workload", w.Name)
	p.Obs = reg
	e := &resolveEnv{p: p, reg: reg, jobs: w.Day(0)[:24]}
	groups, err := p.Grouper().Group(e.jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 4 {
		t.Fatalf("only %d job groups; test is vacuous", len(groups))
	}
	for _, g := range groups {
		e.reps = append(e.reps, g.Jobs[0])
	}
	return e
}

// analyzeAll analyses every representative through AnalyzeEachCtx.
func (e *resolveEnv) analyzeAll(t *testing.T) []*Analysis {
	t.Helper()
	out := make([]*Analysis, len(e.reps))
	err := e.p.AnalyzeEachCtx(context.Background(), e.reps, func(i int, a *Analysis, _ error) { out[i] = a })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// list returns the candidate list the cache keeps for a's job, or nil.
func (e *resolveEnv) list(a *Analysis) *candList {
	fp, _ := jobFingerprint(a.Job)
	key := listKey{seed: e.p.Rand.Derive("job", a.Job.ID).Seed(), m: e.p.MaxCandidates, span: a.Span}
	s := e.p.Cache.shard(fp)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.list(fp, key)
}

// counterSum is the sum of every series of the named counter in snap.
func counterSum(snap obs.Snapshot, name string) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// requireSameAnalysis holds two analyses of one job equal in everything a
// caller reads, candidate costs by their bits.
func requireSameAnalysis(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if got.Job.ID != want.Job.ID || got.Span != want.Span || !reflect.DeepEqual(got.Default, want.Default) {
		t.Fatalf("%s: default trial or span differs", label)
	}
	if !sameCandidates(got.Candidates, want.Candidates) || !sameCandidates(got.Selected, want.Selected) {
		t.Fatalf("%s: candidates %d / selected %d, want %d / %d", label, len(got.Candidates), len(got.Selected), len(want.Candidates), len(want.Selected))
	}
	if !reflect.DeepEqual(got.Trials, want.Trials) {
		t.Fatalf("%s: trials %+v, want %+v", label, got.Trials, want.Trials)
	}
	if got.Footprint != want.Footprint || got.Sched != want.Sched || got.Robustness != want.Robustness {
		t.Fatalf("%s: footprint %+v sched %+v robustness %+v, want %+v %+v %+v", label,
			got.Footprint, got.Sched, got.Robustness, want.Footprint, want.Sched, want.Robustness)
	}
}

// TestRepassResolvesOnce: after a cold BuildBundle every representative's
// kept candidate list carries its resolution, and a warm pass reads it
// without one candidate probe or compile. A twin pipeline that went through
// the same cold pass and then forgot every resolution resolves its warm pass
// candidate by candidate; each analysis and the whole registry snapshot of
// the two warm passes are equal, so reading the resolution counts exactly
// what the probes would have.
func TestRepassResolvesOnce(t *testing.T) {
	kept, probed := newResolveEnv(t), newResolveEnv(t)
	for _, e := range []*resolveEnv{kept, probed} {
		if _, _, err := e.p.BuildBundle(e.jobs, 4, 1700000000); err != nil {
			t.Fatal(err)
		}
	}
	lists := candidateLists(kept.p.Cache)
	for _, job := range kept.reps {
		fp, _ := jobFingerprint(job)
		if l := lists[fp]; l == nil || l.res.Load() == nil {
			t.Fatalf("%s: the cold pass left no candidate list with its resolution", job.ID)
		}
	}
	forgotten := 0
	for _, l := range candidateLists(probed.p.Cache) {
		forgotten += len(l.cfgs)
		l.res.Store(nil)
	}

	const compilesMetric = "steerq_cascades_compiles_total"
	keptProbes, keptCompiles := kept.p.Cache.CandidateProbes(), counterSum(kept.reg.Snapshot(), compilesMetric)
	probedProbes := probed.p.Cache.CandidateProbes()
	got, want := kept.analyzeAll(t), probed.analyzeAll(t)
	if n := kept.p.Cache.CandidateProbes() - keptProbes; n != 0 {
		t.Errorf("warm pass probed the cache for %d candidates, want 0", n)
	}
	if n := probed.p.Cache.CandidateProbes() - probedProbes; n != uint64(forgotten) || n == 0 {
		t.Errorf("per-candidate warm pass probed %d candidates, want its lists' %d", n, forgotten)
	}
	snap := kept.reg.Snapshot()
	if n := counterSum(snap, compilesMetric) - keptCompiles; n != 0 {
		t.Errorf("warm pass made %d optimizer calls, want 0", n)
	}
	for i, a := range got {
		requireSameAnalysis(t, a.Job.ID, a, want[i])
		l := kept.list(a)
		if res := l.res.Load(); res == nil || len(a.Candidates) == 0 || &a.Candidates[0] != &res.cands[0] {
			t.Errorf("%s: warm analysis does not read its list's kept candidates", a.Job.ID)
		}
		if fs := a.Footprint; fs.Candidates != len(l.cfgs) || fs.Avoided != fs.Candidates || fs.Compiled != 0 {
			t.Errorf("%s: warm footprint %+v, want every one of %d candidates avoided", a.Job.ID, fs, len(l.cfgs))
		}
	}
	if other := probed.reg.Snapshot(); !reflect.DeepEqual(snap, other) {
		t.Errorf("registry snapshot after the warm pass differs from the per-candidate pass's:\n%+v\nvs\n%+v", snap.Counters, other.Counters)
	}
}

// TestFaultedResolutionIsNotKept: under injected compile failures heavy
// enough that some candidates exhaust their retries, an analysis that met
// such a faulted compile keeps no resolution, and the next analysis of its
// job resolves the list candidate by candidate again: it recompiles exactly
// the faulted candidates, which fault alike (fault decisions are keyed by
// content), and reproduces the first analysis's candidates. With injection
// off the list resolves cleanly and is kept; the analysis reading it equals
// the one that wrote it, and its Candidates cannot be grown into the cache.
func TestFaultedResolutionIsNotKept(t *testing.T) {
	e := newResolveEnv(t)
	h := e.p.Harness
	h.SetFaults(faults.NewInjector(faults.Plan{Seed: 1337, Compile: faults.Probs{Fail: 0.4}}))
	analyze := func(job *workload.Job) (*Analysis, uint64, uint64) {
		t.Helper()
		probes, faulted := e.p.Cache.CandidateProbes(), e.reg.Counter("steerq_pipeline_candidates_total", "outcome", "faulted").Value()
		a, err := e.p.AnalyzeCtx(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		return a, e.p.Cache.CandidateProbes() - probes, e.reg.Counter("steerq_pipeline_candidates_total", "outcome", "faulted").Value() - faulted
	}
	var dirty []*Analysis
	clean := 0
	for _, job := range e.reps {
		a, probes, faulted := analyze(job)
		l := e.list(a)
		if probes != uint64(len(l.cfgs)) {
			t.Errorf("%s: first analysis probed %d of %d candidates", job.ID, probes, len(l.cfgs))
		}
		res := l.res.Load()
		switch {
		case faulted == 0 && (res == nil || &res.cands[0] != &a.Candidates[0]):
			t.Errorf("%s: a clean analysis kept no resolution", job.ID)
		case faulted > 0 && res != nil:
			t.Errorf("%s: an analysis with %d faulted candidates kept its resolution", job.ID, faulted)
		case faulted > 0:
			dirty = append(dirty, a)
		default:
			clean++
		}
	}
	if len(dirty) == 0 || clean == 0 {
		t.Fatalf("%d faulted and %d clean analyses; test is vacuous", len(dirty), clean)
	}

	for _, first := range dirty {
		again, probes, faulted := analyze(first.Job)
		l := e.list(again)
		if probes != uint64(len(l.cfgs)) || l.res.Load() != nil {
			t.Errorf("%s: re-analysis probed %d of %d candidates, kept resolution %v", first.Job.ID, probes, len(l.cfgs), l.res.Load() != nil)
		}
		if uint64(again.Footprint.Compiled) != faulted || !sameCandidates(again.Candidates, first.Candidates) {
			t.Errorf("%s: re-analysis compiled %d candidates for %d faulted and kept %d of the first analysis's %d successes",
				first.Job.ID, again.Footprint.Compiled, faulted, len(again.Candidates), len(first.Candidates))
		}
	}

	h.SetFaults(nil)
	for _, first := range dirty {
		healed, probes, _ := analyze(first.Job)
		l := e.list(healed)
		res := l.res.Load()
		if probes != uint64(len(l.cfgs)) || res == nil || len(healed.Candidates) <= len(first.Candidates) {
			t.Fatalf("%s: healed analysis probed %d of %d candidates, kept resolution %v, %d successes (faulted: %d)",
				first.Job.ID, probes, len(l.cfgs), res != nil, len(healed.Candidates), len(first.Candidates))
		}
		warm, probes, _ := analyze(first.Job)
		if probes != 0 {
			t.Errorf("%s: analysis after the clean one probed %d candidates", first.Job.ID, probes)
		}
		healed.Footprint, healed.Sched = warm.Footprint, warm.Sched // the healing pass compiled the faulted ones
		requireSameAnalysis(t, first.Job.ID, warm, healed)

		if cap(warm.Candidates) != len(warm.Candidates) {
			t.Fatalf("%s: kept candidates have len %d, cap %d", first.Job.ID, len(warm.Candidates), cap(warm.Candidates))
		}
		n := len(warm.Candidates)
		grown := append(warm.Candidates, Candidate{EstCost: -1})
		if &grown[0] == &res.cands[0] || len(res.cands) != n {
			t.Fatalf("%s: appending to an analysis's candidates wrote into the kept list", first.Job.ID)
		}
		if next, _, _ := analyze(first.Job); !sameCandidates(next.Candidates, res.cands) || len(next.Candidates) != n {
			t.Fatalf("%s: an append to one analysis's candidates reached the next analysis", first.Job.ID)
		}
	}
}
