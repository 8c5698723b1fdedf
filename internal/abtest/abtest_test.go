package abtest_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
)

func harness(t *testing.T) (*abtest.Harness, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 100, TrueDistinct: 100, Min: 0, Max: 100},
			{Name: "v", Distinct: 50, TrueDistinct: 50, Min: 0, Max: 50},
		},
		BaseRows: 1e6, BytesPerRow: 40, DailySigma: 0.1, GrowthPerDay: 1,
	})
	opt := rules.NewOptimizer(cost.NewEstimated(cat))
	return abtest.New(cat, opt, 3), cat
}

const script = `x = SELECT k, v FROM "s" WHERE v > 10; OUTPUT x TO "o";`

func TestRunConfigSuccess(t *testing.T) {
	h, cat := harness(t)
	root, err := scopeql.Compile(script, cat)
	if err != nil {
		t.Fatal(err)
	}
	tr := h.RunConfig(root, h.Opt.Rules.DefaultConfig(), 0, "j1")
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	if tr.Metrics.RuntimeSec <= 0 || tr.EstCost <= 0 || tr.Signature.IsEmpty() {
		t.Fatalf("trial incomplete: %+v", tr)
	}
}

func TestRunConfigCompileFailure(t *testing.T) {
	h, cat := harness(t)
	root, err := scopeql.Compile(script, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Disabling every scan-adjacent filter implementation is impossible
	// (they're required); instead disable everything non-required — the
	// filter rewrite paths survive via required rules, so to force failure
	// we disable the whole configuration including implementation rules
	// for Get... Required rules ignore bits, so the job still compiles.
	// A guaranteed failure: empty config on a job with a Top (no top
	// implementation enabled).
	topRoot, err := scopeql.Compile(`x = SELECT TOP 5 k FROM "s" ORDER BY k; OUTPUT x TO "o";`, cat)
	if err != nil {
		t.Fatal(err)
	}
	var empty bitvec.Vector
	tr := h.RunConfig(topRoot, empty, 0, "j2")
	if tr.Err == nil {
		t.Fatal("expected compile failure with all top implementations disabled")
	}
	_ = root
}

// TestTrialsDeterministicPerTag: a trial's execution noise is keyed by its
// tag — one tag reproduces its metrics exactly, and distinct tags under the
// same configuration run the same plan with independent noise.
func TestTrialsDeterministicPerTag(t *testing.T) {
	h, cat := harness(t)
	root, err := scopeql.Compile(script, cat)
	if err != nil {
		t.Fatal(err)
	}
	def := h.Opt.Rules.DefaultConfig()
	t1 := h.RunConfig(root, def, 0, "same-tag")
	t2 := h.RunConfig(root, def, 0, "same-tag")
	if t1.Metrics != t2.Metrics {
		t.Fatal("identical tags produced different metrics")
	}
	other := h.RunConfig(root, def, 0, "other-tag")
	if other.Err != nil {
		t.Fatal(other.Err)
	}
	if !other.Signature.Equal(t1.Signature) {
		t.Fatal("same config produced different signatures")
	}
	if other.Metrics.RuntimeSec == t1.Metrics.RuntimeSec {
		t.Fatal("distinct tags produced identical runtimes (no variance)")
	}
}

// TestRunConfigIsCompileThenExec: RunConfigCtx is CompileCtx and ExecCtx
// composed and nothing more — trial, attempts, fault record and everything
// the registry saw (spans, outcomes, attempt counters) are identical whether a
// trial runs whole or in its halves: clean, with no plan, and when either
// site retries, times out or gives up.
func TestRunConfigIsCompileThenExec(t *testing.T) {
	const topScript = `x = SELECT TOP 5 k FROM "s" ORDER BY k; OUTPUT x TO "o";`
	retrying := &faults.Plan{Seed: 11, Compile: faults.Probs{Fail: 0.4, Corrupt: 0.2}, Exec: faults.Probs{Fail: 0.5}}
	for _, tc := range []struct {
		name   string
		script string
		empty  bool // the empty configuration, under which TOP has no plan
		fault  *faults.Plan
	}{
		{name: "clean", script: script},
		{name: "no-plan", script: topScript, empty: true},
		{name: "retries", script: script, fault: retrying},
		// No deadline on the trial: every injected hang is an immediate
		// watchdog kill, so each attempt times out at once.
		{name: "compile-timeout", script: script, fault: &faults.Plan{Seed: 1, Compile: faults.Probs{Hang: 1}}},
		{name: "exec-timeout", script: script, fault: &faults.Plan{Seed: 1, Exec: faults.Probs{Hang: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				trials []abtest.Trial
				rec    faults.Record
				snap   string
			}
			run := func(halves bool) outcome {
				h, cat := harness(t)
				reg := obs.NewWithClock(obs.FrozenClock())
				h.SetObs(reg)
				if tc.fault != nil {
					h.SetFaults(faults.NewInjector(*tc.fault))
				}
				root, err := scopeql.Compile(tc.script, cat)
				if err != nil {
					t.Fatal(err)
				}
				cfg := h.Opt.Rules.DefaultConfig()
				if tc.empty {
					cfg = bitvec.Vector{}
				}
				var out outcome
				ctx := context.Background()
				for i := 0; i < 12; i++ {
					tag := fmt.Sprintf("j/%d", i)
					if !halves {
						out.trials = append(out.trials, h.RunConfigCtx(ctx, root, cfg, 3, tag, &out.rec))
						continue
					}
					res, attempts, err := h.CompileCtx(ctx, tag, &out.rec, func(bool) (*cascades.Result, error) {
						return h.Opt.Optimize(root, cfg)
					})
					if err != nil {
						if res != nil && !errors.Is(err, cascades.ErrNoPlan) {
							t.Fatalf("%s: faulted compile returned a result", tag)
						}
						out.trials = append(out.trials, abtest.Trial{Config: cfg, Err: err, Attempts: attempts})
						continue
					}
					tr := h.ExecCtx(ctx, res, 3, tag, &out.rec)
					tr.Attempts += attempts
					out.trials = append(out.trials, tr)
				}
				snap, err := reg.Snapshot().MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				out.snap = string(snap)
				return out
			}
			whole, halves := run(false), run(true)
			failed, retried := 0, 0
			for i, w := range whole.trials {
				g := halves.trials[i]
				if fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
					t.Fatalf("trial %d: err %v, want %v", i, g.Err, w.Err)
				}
				g.Err, w.Err = nil, nil
				if g != w {
					t.Fatalf("trial %d: %+v, want %+v", i, g, w)
				}
				if halves.trials[i].Err != nil {
					failed++
				}
				if w.Attempts > 2 {
					retried++
				}
			}
			if halves.rec != whole.rec {
				t.Fatalf("record %+v, want %+v", halves.rec, whole.rec)
			}
			if halves.snap != whole.snap {
				t.Fatalf("registry differs:\n%s--- want ---\n%s", halves.snap, whole.snap)
			}
			switch tc.name {
			case "clean":
				if failed != 0 || retried != 0 {
					t.Fatalf("%d failed, %d retried", failed, retried)
				}
			case "retries":
				if failed == 0 || failed == len(whole.trials) || retried == 0 || whole.rec.CompileRetries == 0 || whole.rec.ExecRetries == 0 || whole.rec.Corruptions == 0 {
					t.Fatalf("%d failed, %d retried, record %+v; case is vacuous", failed, retried, whole.rec)
				}
			default:
				if failed != len(whole.trials) || (tc.fault != nil && whole.rec.Timeouts == 0) {
					t.Fatalf("%d of %d failed, record %+v", failed, len(whole.trials), whole.rec)
				}
			}
		})
	}
}
