package experiments

import (
	"bytes"
	"testing"

	"steerq/internal/faults"
	"steerq/internal/steering"
)

// faultyRunner builds a runner armed with fp whose executors validate every
// plan they run (STEERQ_CHECK_PLANS, read by exec.New).
func faultyRunner(t *testing.T, workers int, fp faults.Plan) *Runner {
	t.Setenv("STEERQ_CHECK_PLANS", "1")
	cfg := tinyConfig()
	cfg.Workers = workers
	cfg.Faults = &fp
	return NewRunner(cfg)
}

func requireSameAnalyses(t *testing.T, label string, as, bs []*steering.Analysis) {
	t.Helper()
	if len(as) != len(bs) {
		t.Fatalf("%s: %d vs %d analyses", label, len(as), len(bs))
	}
	for i := range as {
		a, b := as[i], bs[i]
		if a.Job.ID != b.Job.ID {
			t.Fatalf("%s: analysis %d is for job %s vs %s", label, i, a.Job.ID, b.Job.ID)
		}
		if !a.Span.Equal(b.Span) {
			t.Fatalf("%s: job %s span differs", label, a.Job.ID)
		}
		if len(a.Candidates) != len(b.Candidates) {
			t.Fatalf("%s: job %s candidates %d vs %d", label, a.Job.ID, len(a.Candidates), len(b.Candidates))
		}
		for c := range a.Candidates {
			if a.Candidates[c] != b.Candidates[c] {
				t.Fatalf("%s: job %s candidate %d differs", label, a.Job.ID, c)
			}
		}
		if len(a.Trials) != len(b.Trials) {
			t.Fatalf("%s: job %s trials %d vs %d", label, a.Job.ID, len(a.Trials), len(b.Trials))
		}
		for k := range a.Trials {
			ta, tb := a.Trials[k], b.Trials[k]
			if ta.Config != tb.Config || ta.Signature != tb.Signature || ta.Metrics != tb.Metrics ||
				ta.Attempts != tb.Attempts || ta.FellBack != tb.FellBack {
				t.Fatalf("%s: job %s trial %d differs: %+v vs %+v", label, a.Job.ID, k, ta, tb)
			}
		}
		if a.Robustness != b.Robustness {
			t.Fatalf("%s: job %s robustness %+v vs %+v", label, a.Job.ID, a.Robustness, b.Robustness)
		}
	}
}

// TestRunnerFaultDeterminism is the end-to-end acceptance property: a full
// AnalyzedJobs run with a pinned fault seed — sampling, spans, candidates,
// executed trials, retry/fallback accounting, and the rendered robustness
// report — is byte-identical at Workers=1 and Workers=8. Run under -race it
// also exercises the shared injector and compile cache concurrently.
func TestRunnerFaultDeterminism(t *testing.T) {
	fp := faults.DefaultPlan(1337)
	base := faultyRunner(t, 1, fp)
	baseAnalyses := base.AnalyzedJobs("A", 0)
	if len(baseAnalyses) == 0 {
		t.Fatal("no analyses; test is vacuous")
	}
	if base.Robustness("A").IsZero() {
		t.Fatal("fault plan injected nothing the pipeline had to handle; test is vacuous")
	}

	par := faultyRunner(t, 8, fp)
	parAnalyses := par.AnalyzedJobs("A", 0)
	requireSameAnalyses(t, "workers=8", baseAnalyses, parAnalyses)

	if *base.Robustness("A") != *par.Robustness("A") {
		t.Fatalf("robustness records differ: %+v vs %+v", *base.Robustness("A"), *par.Robustness("A"))
	}
	var w1, w8 bytes.Buffer
	base.RobustnessFor("A").Render(&w1)
	par.RobustnessFor("A").Render(&w8)
	if w1.String() != w8.String() {
		t.Fatalf("rendered reports differ:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", w1.String(), w8.String())
	}
}

// TestRunnerFaultedJobsAllResolve checks graceful degradation end to end:
// with moderate fault rates every analysis the runner returns has every
// executed trial either retried into success or marked as a fallback copy of
// the default — no injected error escapes to experiment code. Plan checking
// makes the executor panic on any corrupt plan that slipped through.
func TestRunnerFaultedJobsAllResolve(t *testing.T) {
	r := faultyRunner(t, 4, faults.DefaultPlan(2024))
	analyses := r.AnalyzedJobs("A", 0)
	if len(analyses) == 0 {
		t.Fatal("every job failed analysis")
	}
	fallbacks := 0
	for _, a := range analyses {
		for i, tr := range a.Trials {
			if tr.Err != nil {
				t.Fatalf("job %s trial %d surfaced error %v", a.Job.ID, i, tr.Err)
			}
			if tr.FellBack {
				fallbacks++
				if tr.Metrics != a.Default.Metrics {
					t.Fatalf("job %s trial %d fell back but is not the default's metrics", a.Job.ID, i)
				}
			}
		}
	}
	rec := r.Robustness("A")
	if rec.Retries() == 0 {
		t.Fatalf("no retries recorded under injection: %+v", *rec)
	}
	if fallbacks != rec.Fallbacks {
		t.Fatalf("record counts %d fallbacks, trials show %d", rec.Fallbacks, fallbacks)
	}
	rep := r.RobustnessFor("A")
	if rep.Stats.Injected() == 0 {
		t.Fatal("injector reports nothing injected; rates too low for this test")
	}
	if rep.Analyses != len(analyses) {
		t.Fatalf("report counts %d analyses, runner returned %d", rep.Analyses, len(analyses))
	}
}

// TestRunnerGiveUpCountedOnce: a job whose analysis fails even after retries
// is given up, logged, counted once — and not recomputed when the same day is
// requested again.
func TestRunnerGiveUpCountedOnce(t *testing.T) {
	// All compiles fail: LongJobs is empty (default trials all error), and
	// forcing an analysis through the pipeline gives up.
	r := faultyRunner(t, 2, faults.Plan{Seed: 9, Compile: faults.Probs{Fail: 1}})
	if jobs := r.LongJobs("A", 0); len(jobs) != 0 {
		t.Fatalf("%d jobs survived an all-fail compile plan", len(jobs))
	}
	a := r.AnalyzedJobs("A", 0)
	if len(a) != 0 {
		t.Fatalf("AnalyzedJobs returned %d analyses under an all-fail plan", len(a))
	}
	// Nothing reached the pipeline (no long jobs), so no give-ups — but the
	// injector must have been busy failing the default trials.
	if r.RobustnessFor("A").Stats.Fails == 0 {
		t.Fatal("no injected failures recorded")
	}
	if rec := r.Robustness("A"); rec.CompileRetries == 0 {
		t.Fatalf("default trials retried nothing: %+v", *rec)
	}
}
