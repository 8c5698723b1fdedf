package steering_test

import (
	"context"
	"testing"

	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// fingerprintJob gives the script job the hashes a generated recurring job
// would carry, so the compile cache accepts it.
func fingerprintJob(t *testing.T, j *workload.Job) {
	t.Helper()
	j.TemplateHash = 0xfeed
	j.InstanceHash = 0xbeef
	j.InputsHash = 0xcafe
}

func analyzeWith(t *testing.T, workers int, cache *steering.CompileCache) *steering.Analysis {
	t.Helper()
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	fingerprintJob(t, job)
	p := steering.NewPipeline(h, xrand.New(11).Derive("par-test"))
	p.MaxCandidates = 80
	p.ExecutePerJob = 5
	p.Workers = workers
	p.Cache = cache
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return a
}

func requireSameAnalysis(t *testing.T, label string, a, b *steering.Analysis) {
	t.Helper()
	if !a.Span.Equal(b.Span) {
		t.Fatalf("%s: span differs: %v vs %v", label, a.Span, b.Span)
	}
	if a.Default.Signature != b.Default.Signature || a.Default.EstCost != b.Default.EstCost ||
		a.Default.Metrics != b.Default.Metrics {
		t.Fatalf("%s: default trial differs", label)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("%s: candidate count %d vs %d", label, len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Config != cb.Config || ca.EstCost != cb.EstCost || ca.Signature != cb.Signature {
			t.Fatalf("%s: candidate %d differs: %+v vs %+v", label, i, ca, cb)
		}
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("%s: selected count %d vs %d", label, len(a.Selected), len(b.Selected))
	}
	for i := range a.Selected {
		if a.Selected[i].Config != b.Selected[i].Config {
			t.Fatalf("%s: selection %d differs", label, i)
		}
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial count %d vs %d", label, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Config != tb.Config || ta.Signature != tb.Signature ||
			ta.EstCost != tb.EstCost || ta.Metrics != tb.Metrics {
			t.Fatalf("%s: trial %d differs: %+v vs %+v", label, i, ta, tb)
		}
	}
}

// TestPipelineParallelDeterminism is the determinism contract: candidates,
// selections, signatures and trial metrics are bit-for-bit identical at any
// worker count, with and without the compile cache.
func TestPipelineParallelDeterminism(t *testing.T) {
	base := analyzeWith(t, 1, nil)
	if len(base.Candidates) == 0 || len(base.Trials) == 0 {
		t.Fatal("serial baseline produced no candidates/trials; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		requireSameAnalysis(t, "workers", base, analyzeWith(t, workers, nil))
	}
	requireSameAnalysis(t, "cache+serial", base, analyzeWith(t, 1, steering.NewCompileCache()))
	requireSameAnalysis(t, "cache+parallel", base, analyzeWith(t, 8, steering.NewCompileCache()))
}

// TestCompileCacheReuse checks that a second recompilation of the same job is
// served from the cache and still yields identical results.
func TestCompileCacheReuse(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	fingerprintJob(t, job)
	cache := steering.NewCompileCache()
	p := steering.NewPipeline(h, xrand.New(11).Derive("cache-test"))
	p.MaxCandidates = 40
	p.Workers = 4
	p.Cache = cache

	a1, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	first := cache.Stats()
	if first.Entries == 0 || first.Misses == 0 {
		t.Fatalf("first pass should populate the cache, got %+v", first)
	}
	a2, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	second := cache.Stats()
	if second.Misses != first.Misses {
		t.Fatalf("second pass missed the cache: %d -> %d misses", first.Misses, second.Misses)
	}
	if second.Hits <= first.Hits {
		t.Fatalf("second pass recorded no hits: %+v -> %+v", first, second)
	}
	if !a1.Span.Equal(a2.Span) || len(a1.Candidates) != len(a2.Candidates) {
		t.Fatal("cached recompilation differs from fresh one")
	}
	for i := range a1.Candidates {
		if a1.Candidates[i] != a2.Candidates[i] {
			t.Fatalf("cached candidate %d differs", i)
		}
	}
}

// TestCompileCacheSkipsUnfingerprintedJobs: ad-hoc jobs without template /
// instance / input hashes must bypass the cache — an all-zero key would alias
// every script job onto one entry.
func TestCompileCacheSkipsUnfingerprintedJobs(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat) // zero hashes
	cache := steering.NewCompileCache()
	p := steering.NewPipeline(h, xrand.New(11).Derive("cache-skip"))
	p.MaxCandidates = 20
	p.Cache = cache
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("unfingerprinted job touched the cache: %+v", st)
	}
}
