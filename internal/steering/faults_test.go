package steering_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"steerq/internal/cascades"
	"steerq/internal/faults"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

// faultyPipeline builds a pipeline with fault injection armed and plan
// checking on: any corrupted plan that slipped past compile validation would
// panic in the executor, so a passing test proves the robustness layer
// filtered every one.
func faultyPipeline(t *testing.T, workers int, cache *steering.CompileCache, fp faults.Plan) *steering.Pipeline {
	t.Helper()
	cat := steerCatalog()
	h := steerHarness(cat)
	h.Executor.CheckPlans = true
	h.SetFaults(faults.NewInjector(fp))
	p := steering.NewPipeline(h, xrand.New(11).Derive("fault-test"))
	p.MaxCandidates = 40
	p.ExecutePerJob = 5
	p.Workers = workers
	p.Cache = cache
	return p
}

func analyzeFaulty(t *testing.T, workers int, cache *steering.CompileCache, fp faults.Plan) *steering.Analysis {
	t.Helper()
	p := faultyPipeline(t, workers, cache, fp)
	job := steerJob(t, p.Harness.Cat)
	fingerprintJob(t, job)
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return a
}

// requireSameFaultyAnalysis extends the clean-path comparison with the
// robustness fields: fault handling must be as reproducible as the results.
func requireSameFaultyAnalysis(t *testing.T, label string, a, b *steering.Analysis) {
	t.Helper()
	requireSameAnalysis(t, label, a, b)
	if a.Robustness != b.Robustness {
		t.Fatalf("%s: robustness differs: %+v vs %+v", label, a.Robustness, b.Robustness)
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.FellBack != tb.FellBack || ta.Attempts != tb.Attempts {
			t.Fatalf("%s: trial %d fault handling differs: fellback %v/%v attempts %d/%d",
				label, i, ta.FellBack, tb.FellBack, ta.Attempts, tb.Attempts)
		}
	}
}

// TestPipelineFaultDeterminism is the core metamorphic property: with a
// pinned fault seed, the analysis — including which faults were injected,
// how many retries they cost, and which trials fell back — is bit-for-bit
// identical at any worker count. Run under -race this also proves the
// injector's counters and the retry records are data-race free.
func TestPipelineFaultDeterminism(t *testing.T) {
	fp := faults.DefaultPlan(1337)
	base := analyzeFaulty(t, 1, nil, fp)
	if base.Robustness.IsZero() {
		t.Fatal("fault plan injected nothing; test is vacuous")
	}
	for _, workers := range []int{2, 8} {
		requireSameFaultyAnalysis(t, "workers", base, analyzeFaulty(t, workers, nil, fp))
	}
	requireSameFaultyAnalysis(t, "cache+parallel", base, analyzeFaulty(t, 8, steering.NewCompileCache(), fp))
}

// TestFaultedPipelineSurvives: at moderate fault rates every executed trial
// either succeeded (after retries) or fell back to the default — no trial
// surfaces an injected error, and the retries are observable in the record.
func TestFaultedPipelineSurvives(t *testing.T) {
	a := analyzeFaulty(t, 4, nil, faults.DefaultPlan(2024))
	rb := a.Robustness
	if rb.Retries() == 0 {
		t.Fatalf("no retries recorded under injection: %+v", rb)
	}
	for i, tr := range a.Trials {
		if tr.Err != nil {
			t.Fatalf("trial %d surfaced an error despite retry+fallback: %v", i, tr.Err)
		}
		if tr.FellBack && tr.Metrics != a.Default.Metrics {
			t.Fatalf("trial %d fell back but metrics differ from the default's", i)
		}
	}
	fellBack := 0
	for _, tr := range a.Trials {
		if tr.FellBack {
			fellBack++
		}
	}
	if fellBack != rb.Fallbacks {
		t.Fatalf("record counts %d fallbacks, trials show %d", rb.Fallbacks, fellBack)
	}
}

// TestFallbackToDefault drives the execution site hard enough that some
// selected trial exhausts its retry budget, and checks the graceful
// degradation contract: the trial becomes a copy of the default (marked,
// error-free), the fallback is counted, and BestAlternative refuses to
// treat it as a discovered improvement.
func TestFallbackToDefault(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		fp := faults.Plan{Seed: seed, Exec: faults.Probs{Fail: 0.6}}
		p := faultyPipeline(t, 4, nil, fp)
		job := steerJob(t, p.Harness.Cat)
		a, err := p.AnalyzeCtx(context.Background(), job)
		if err != nil {
			continue // this seed killed even the default trial; try the next
		}
		if a.Robustness.Fallbacks == 0 {
			continue
		}
		sawFallback := false
		for i, tr := range a.Trials {
			if !tr.FellBack {
				continue
			}
			sawFallback = true
			if tr.Err != nil {
				t.Fatalf("seed %d: fallback trial %d carries error %v", seed, i, tr.Err)
			}
			if tr.Metrics != a.Default.Metrics || tr.Signature != a.Default.Signature {
				t.Fatalf("seed %d: fallback trial %d is not a copy of the default", seed, i)
			}
			if tr.Attempts < 2 {
				t.Fatalf("seed %d: fallback after %d attempts, want the exhausted retry budget", seed, i)
			}
		}
		if !sawFallback {
			t.Fatalf("seed %d: record counts fallbacks but no trial is marked", seed)
		}
		if alt := a.BestAlternative(steering.MetricRuntime); alt != nil && alt.FellBack {
			t.Fatalf("seed %d: BestAlternative returned a fallback trial", seed)
		}
		return
	}
	t.Fatal("no seed in [0, 40) produced a fallback; rates or retry budget changed?")
}

// TestCompileCacheNeverCachesFaultedResults is the cache-purity property:
// after a heavily faulted run, every cache entry must be indistinguishable
// from one produced by a fault-free compile. It is checked by draining the
// same cache with injection off and comparing against a pristine run — a
// poisoned entry (injected failure cached as no-plan, corrupted cost or
// signature) would surface as a candidate difference.
func TestCompileCacheNeverCachesFaultedResults(t *testing.T) {
	fp := faults.Plan{Seed: 7, Compile: faults.Probs{Fail: 0.15, Hang: 0.05, Corrupt: 0.15}}
	cache := steering.NewCompileCache()
	p := faultyPipeline(t, 8, cache, fp)
	job := steerJob(t, p.Harness.Cat)
	fingerprintJob(t, job)
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Entries == 0 {
		t.Fatal("faulted run cached nothing; purity check is vacuous")
	}

	// Drain the poisoned-candidate cache with injection off...
	cleanCat := steerCatalog()
	cleanH := steerHarness(cleanCat)
	cleanJob := steerJob(t, cleanCat)
	fingerprintJob(t, cleanJob)
	drain := steering.NewPipeline(cleanH, xrand.New(11).Derive("fault-test"))
	drain.MaxCandidates = 40
	drain.Workers = 4
	drain.Cache = cache
	fromCache, err := drain.Recompile(cleanJob)
	if err != nil {
		t.Fatal(err)
	}
	// ... and compare with a run that never saw the cache or the faults.
	pristineCat := steerCatalog()
	pristineH := steerHarness(pristineCat)
	pristineJob := steerJob(t, pristineCat)
	fingerprintJob(t, pristineJob)
	pristine := steering.NewPipeline(pristineH, xrand.New(11).Derive("fault-test"))
	pristine.MaxCandidates = 40
	pristine.Workers = 4
	a, err := pristine.Recompile(pristineJob)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnalysis(t, "cache drained after faults", a, fromCache)
}

// TestCompileCacheFaultHammer pounds one shared cache from many goroutines
// running faulted recompilations (run under -race). Afterwards the counters
// must be consistent and every concurrent analysis identical.
func TestCompileCacheFaultHammer(t *testing.T) {
	fp := faults.Plan{Seed: 3, Compile: faults.Probs{Fail: 0.1, Hang: 0.03, Corrupt: 0.1}}
	cache := steering.NewCompileCache()
	const goroutines = 8
	results := make([]*steering.Analysis, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := faultyPipeline(t, 2, cache, fp)
			job := steerJob(t, p.Harness.Cat)
			fingerprintJob(t, job)
			results[g], errs[g] = p.Recompile(job)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := cache.Stats()
	if st.Entries == 0 || st.Misses == 0 {
		t.Fatalf("hammer left no trace in the cache: %+v", st)
	}
	if st.Entries > int(st.Misses) {
		t.Fatalf("more entries (%d) than misses (%d): entries appeared without a lookup", st.Entries, st.Misses)
	}
	for g := 1; g < goroutines; g++ {
		if len(results[g].Candidates) != len(results[0].Candidates) {
			t.Fatalf("goroutine %d compiled %d candidates, goroutine 0 compiled %d",
				g, len(results[g].Candidates), len(results[0].Candidates))
		}
		for i := range results[g].Candidates {
			if results[g].Candidates[i] != results[0].Candidates[i] {
				t.Fatalf("goroutine %d candidate %d differs", g, i)
			}
		}
	}
}

// TestFaultedCompileErrorsStayOutOfNegativeCache: an injected persistent
// compile failure must not be cached as "does not compile" — a later
// fault-free recompilation through the same cache must rediscover the
// configuration.
func TestFaultedCompileErrorsStayOutOfNegativeCache(t *testing.T) {
	// All-fail compile plan: with certainty every span probe fails, so
	// Recompile errors out — and must leave the cache empty rather than
	// full of bogus no-plan entries.
	fp := faults.Plan{Seed: 5, Compile: faults.Probs{Fail: 1}}
	cache := steering.NewCompileCache()
	p := faultyPipeline(t, 2, cache, fp)
	job := steerJob(t, p.Harness.Cat)
	fingerprintJob(t, job)
	_, err := p.AnalyzeCtx(context.Background(), job)
	if err == nil {
		t.Fatal("all-fail plan still analyzed")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if errors.Is(err, cascades.ErrNoPlan) {
		t.Fatalf("injected failure surfaced as a genuine no-plan: %v", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("injected failures were cached: %+v", st)
	}
}
