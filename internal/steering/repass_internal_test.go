package steering

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// countSamples wraps the sampler analyses draw their candidate
// configurations with, so that every CandidateConfigs run on the analysis
// path adds one to the returned counter until t ends.
func countSamples(t *testing.T) *atomic.Int64 {
	t.Helper()
	n := new(atomic.Int64)
	sampleCandidates = func(span bitvec.Vector, rs *cascades.RuleSet, m int, r *xrand.Source) []bitvec.Vector {
		n.Add(1)
		return CandidateConfigs(span, rs, m, r)
	}
	t.Cleanup(func() { sampleCandidates = CandidateConfigs })
	return n
}

// candidateLists returns every candidate list c keeps, by job fingerprint.
func candidateLists(c *CompileCache) map[JobFingerprint]*candList {
	out := make(map[JobFingerprint]*candList)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for fp, je := range s.jobs {
			if je.list != nil {
				out[fp] = je.list
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// TestRepassSamplesNothing: after a cold BuildBundle the cache holds exactly
// one candidate list per analysed representative — the list sampling it
// afresh gives, exactly sized — and a warm pass reproduces the bundle
// without sampling, reading those very lists and adding none. A pipeline
// without a cache samples every representative's list on every pass and
// builds the same bytes.
func TestRepassSamplesNothing(t *testing.T) {
	samples := countSamples(t)
	w := workload.Generate(workload.ProfileA(0.0005, 9))
	h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 7)
	p := NewPipeline(h, xrand.New(3).Derive("repass-test"))
	p.MaxCandidates, p.ExecutePerJob = 24, 3
	p.Cache = NewCompileCache()
	jobs := w.Day(0)[:24]
	build := func(p *Pipeline) []byte {
		t.Helper()
		b, _, err := p.BuildBundle(jobs, 4, 1700000000)
		if err != nil {
			t.Fatal(err)
		}
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	groups, err := NewGrouper(h).Group(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 4 {
		t.Fatalf("only %d job groups; test is vacuous", len(groups))
	}

	cold := build(p)
	if n := samples.Load(); n != int64(len(groups)) {
		t.Errorf("cold pass sampled %d candidate lists for %d representatives", n, len(groups))
	}
	coldLists := candidateLists(p.Cache)
	if len(coldLists) != len(groups) {
		t.Errorf("cold pass kept candidate lists for %d jobs, want one per representative (%d)", len(coldLists), len(groups))
	}
	samples.Store(0)
	if !bytes.Equal(build(p), cold) {
		t.Error("re-pass bundle differs from the cold pass's")
	}
	warmLists := candidateLists(p.Cache)
	for _, g := range groups {
		job := g.Jobs[0]
		fp, _ := jobFingerprint(job)
		kept, warm := coldLists[fp], warmLists[fp]
		if kept == nil || len(kept.cfgs) == 0 {
			t.Fatalf("%s: the cold pass kept no candidate list", job.ID)
		}
		if warm != kept {
			t.Errorf("%s: the re-pass's list is not the one the cold pass kept", job.ID)
		}
		a, err := p.Recompile(job)
		if err != nil {
			t.Fatal(err)
		}
		want := CandidateConfigs(a.Span, h.Opt.Rules, p.MaxCandidates, p.Rand.Derive("job", job.ID))
		if cfgs := kept.cfgs; !slices.Equal(cfgs, want) || cap(cfgs) != len(cfgs) {
			t.Errorf("%s: kept list (len %d, cap %d) is not the %d configurations sampling gives", job.ID, len(cfgs), cap(cfgs), len(want))
		}
	}
	if n := samples.Load(); n != 0 {
		t.Errorf("re-pass and re-analyses sampled %d candidate lists, want 0", n)
	}

	uncached := *p
	uncached.Cache = nil
	for pass := 0; pass < 2; pass++ {
		samples.Store(0)
		if !bytes.Equal(build(&uncached), cold) {
			t.Errorf("uncached pass %d: bundle differs from the cached cold pass's", pass)
		}
		if n := samples.Load(); n != int64(len(groups)) {
			t.Errorf("uncached pass %d sampled %d candidate lists, want one per representative (%d)", pass, n, len(groups))
		}
	}
}

// TestKeptCandidateListIsExactlySized: when sampling stops short of its
// capacity — an 8-rule span whose last configurations the attempt budget
// did not reach — the cache keeps the list clipped to its length, and a
// second analysis deriving the same stream reads that very list.
func TestKeptCandidateListIsExactlySized(t *testing.T) {
	rs := rules.Catalog()
	var span bitvec.Vector
	for _, id := range rs.NonRequired().Ones()[:8] {
		span.Set(id)
	}
	const m = 300
	seed := uint64(0)
	for ; seed < 2000; seed++ {
		if cfgs := CandidateConfigs(span, rs, m, xrand.New(seed)); len(cfgs) < cap(cfgs) {
			break
		}
	}
	if seed == 2000 {
		t.Fatal("every seed sampled all of its list's capacity; test is vacuous")
	}
	want := CandidateConfigs(span, rs, m, xrand.New(seed))
	c := NewCompileCache()
	job := &workload.Job{ID: "0/0", TemplateHash: 1}
	l, kept := c.candidates(job, span, rs, m, xrand.New(seed))
	if got := l.cfgs; !kept || !slices.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("kept %v list has len %d, cap %d; sampled %d of capacity %d", kept, len(got), cap(got), len(want), cap(want))
	}
	if again, kept := c.candidates(job, span, rs, m, xrand.New(seed)); !kept || again != l {
		t.Fatal("a second analysis under the same stream did not read the kept list")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("candidate lists moved the cache's counters: %+v", st)
	}
}
