package steering_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/steering"
)

// analysisDigest hashes everything an analysis lets a caller observe: span,
// default trial, candidates, selection, trials with their fault handling,
// robustness tallies, footprint and scheduling statistics. The Record fields
// are named one by one so the digest does not move when a field is added to
// or removed from faults.Record.
func analysisDigest(a *steering.Analysis) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%v|%v|%+v|", a.Job.ID, a.Span, a.Default.Signature, a.Default.EstCost, a.Default.Metrics)
	for _, c := range a.Candidates {
		fmt.Fprintf(h, "c%v|%v|%v|", c.Config, c.EstCost, c.Signature)
	}
	for _, c := range a.Selected {
		fmt.Fprintf(h, "s%v|", c.Config)
	}
	for _, tr := range a.Trials {
		fmt.Fprintf(h, "t%v|%v|%v|%+v|%v|%d|%v|", tr.Config, tr.Signature, tr.EstCost, tr.Metrics, tr.FellBack, tr.Attempts, tr.Err)
	}
	rb := a.Robustness
	fmt.Fprintf(h, "{CompileRetries:%d ExecRetries:%d Timeouts:%d Corruptions:%d Fallbacks:%d GiveUps:%d}|%+v|%+v",
		rb.CompileRetries, rb.ExecRetries, rb.Timeouts, rb.Corruptions, rb.Fallbacks, rb.GiveUps, a.Footprint, a.Sched)
	return h.Sum64()
}

// TestSessionFaultedBuildMatchesPerCompileBaseline pins the faulted fan-out (fault
// seed 1337) to what the pipeline produced when every span probe and
// candidate was a compile of its own, before they shared an optimizer session
// (recorded at commit 3ee16ad): bundle bytes, report, every group's
// analysis and the summed robustness record, at Workers 1 and 8. The
// analyses fold was re-derived at commit b983202 when analysisDigest began
// spelling out the Record fields, with nothing else changed. Injected
// failures and hangs never enter the optimizer, so a session must see — and
// produce — exactly what per-compile memos did.
func TestSessionFaultedBuildMatchesPerCompileBaseline(t *testing.T) {
	const (
		wantBundle   = uint64(0x5aa075f0bfcc99c9)
		wantAnalyses = uint64(0x7ad478b0c504a0e1)
	)
	wantReport := steering.BundleReport{Jobs: 24, Groups: 13, Steered: 12, Fallbacks: 1}
	wantRobustness := faults.Record{CompileRetries: 36, Timeouts: 10, Corruptions: 6}
	plan := faults.DefaultPlan(1337)
	for _, w := range []int{1, 8} {
		setup := fanoutSetup{workers: w, fault: &plan}
		out := buildWith(t, setup)
		bh := fnv.New64a()
		bh.Write(out.bytes)
		if bh.Sum64() != wantBundle || out.rep != wantReport {
			t.Errorf("workers=%d: bundle %#x report %#v, baseline %#x %#v", w, bh.Sum64(), out.rep, wantBundle, wantReport)
		}
		as, errs := analyzeEachWith(t, setup)
		fold := fnv.New64a()
		var rb faults.Record
		for i, a := range as {
			if errs[i] != nil {
				fmt.Fprintf(fold, "err %v|", errs[i])
				continue
			}
			fmt.Fprintf(fold, "%016x|", analysisDigest(a))
			rb.Add(a.Robustness)
		}
		if fold.Sum64() != wantAnalyses || rb != wantRobustness {
			t.Errorf("workers=%d: analyses %#x robustness %#v, baseline %#x %#v", w, fold.Sum64(), rb, wantAnalyses, wantRobustness)
		}
	}
}

// TestAnalyzeSharesOneSession: AnalyzeCtx — both halves of an analysis
// through one optimizer session — equals RecompileCtx followed by
// ExecuteCtx, each on a session of its own, field for field (trials,
// robustness, footprint), clean and under fault seed 1337; and its trials
// explore no memo fresh: every one they compile on was explored by the
// analysis's first half.
func TestAnalyzeSharesOneSession(t *testing.T) {
	plan := faults.DefaultPlan(1337)
	for _, fault := range []*faults.Plan{nil, &plan} {
		setup := fanoutSetup{workers: 1, fault: fault}
		split, whole := newFanoutEnv(t, setup), newFanoutEnv(t, setup)
		explored := func(e *fanoutEnv) *obs.Counter {
			return e.reg.Counter("steerq_cascades_explorations_total", "outcome", "fresh")
		}
		splitReps, wholeReps := split.reps(t), whole.reps(t)
		trials, injected := 0, false
		for i := range splitReps {
			label := fmt.Sprintf("fault %v group %d", fault != nil, i)
			before := explored(split).Value()
			want, werr := split.p.RecompileCtx(context.Background(), splitReps[i])
			recompiled := explored(split).Value() - before
			if werr == nil {
				split.p.ExecuteCtx(context.Background(), want)
			}
			before = explored(whole).Value()
			got, gerr := whole.p.AnalyzeCtx(context.Background(), wholeReps[i])
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: AnalyzeCtx err %v, RecompileCtx err %v", label, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			requireSameFaultyAnalysis(t, label, want, got)
			if got.Footprint != want.Footprint {
				t.Fatalf("%s: footprint %+v, want %+v", label, got.Footprint, want.Footprint)
			}
			if n := explored(whole).Value() - before; n != recompiled {
				t.Fatalf("%s: the analysis explored %d memos, its first half alone %d", label, n, recompiled)
			}
			trials += len(got.Trials)
			injected = injected || !got.Robustness.IsZero()
		}
		if trials == 0 || (fault != nil && !injected) {
			t.Fatalf("fault %v: %d trials, injected %v; the test is vacuous", fault != nil, trials, injected)
		}
	}
}

// TestExecuteIsReentrant: executing an analysis a second time replaces its
// selection and trials with what the first execution produced, instead of
// appending trials that no longer line up with Selected.
func TestExecuteIsReentrant(t *testing.T) {
	e := newFanoutEnv(t, fanoutSetup{workers: 1})
	for i, job := range e.reps(t) {
		label := fmt.Sprintf("group %d", i)
		once, err := e.p.RecompileCtx(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		twice := *once
		e.p.ExecuteCtx(context.Background(), once)
		e.p.ExecuteCtx(context.Background(), &twice)
		e.p.ExecuteCtx(context.Background(), &twice)
		if len(once.Trials) == 0 || len(once.Trials) != len(once.Selected) {
			t.Fatalf("%s: %d trials for %d selected", label, len(once.Trials), len(once.Selected))
		}
		requireSameFaultyAnalysis(t, label, once, &twice)
	}
}
