package experiments

import (
	"context"
	"fmt"
	"testing"

	"steerq/internal/faults"
	"steerq/internal/steering"
)

// TestBundleServesMeasuredPlan: every steered entry of a day-0 bundle
// compiles, in a fresh Optimize, to the plan its representative's best trial
// was measured on — the same plan text, estimated cost and signature — on
// Workloads A, B and C at the experiments' default configuration, at 1 and 8
// workers, clean and under fault seed 1337. The representative is
// re-analysed through the pipeline that built the bundle, whose cache makes
// that a re-pass; its MinimalConfig must be the entry's config, so the trial
// checked is the one the entry was built from.
func TestBundleServesMeasuredPlan(t *testing.T) {
	seed := faults.DefaultPlan(1337)
	for _, fault := range []*faults.Plan{nil, &seed} {
		for _, workers := range []int{1, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.Faults = fault
			r := NewRunner(cfg)
			for _, name := range []string{"A", "B", "C"} {
				label := fmt.Sprintf("fault %v workers %d workload %s", fault != nil, workers, name)
				checkBundleServesMeasuredPlan(t, r, name, label)
			}
		}
	}
}

func checkBundleServesMeasuredPlan(t *testing.T, r *Runner, name, label string) {
	t.Helper()
	ctx := context.Background()
	p, h, jobs := r.Pipeline(name), r.Harness(name), r.Day(name, 0)
	b, rep, err := p.BuildBundleCtx(ctx, jobs, 0, 0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	groups, err := p.Grouper().Group(jobs)
	if err != nil || len(groups) != len(b.Entries) {
		t.Fatalf("%s: %d groups (err %v) for %d entries", label, len(groups), err, len(b.Entries))
	}
	steered, missed := 0, 0
	for gi, grp := range groups {
		e := b.Entries[gi]
		if e.Fallback {
			continue
		}
		steered++
		job := grp.Jobs[0]
		a, err := p.AnalyzeCtx(ctx, job)
		if err != nil {
			t.Fatalf("%s: %s: re-analysis: %v", label, job.ID, err)
		}
		if cfg, ok := steering.MinimalConfig(a, h.Opt.Rules); !ok || !cfg.Equal(e.Config) {
			t.Fatalf("%s: %s: the re-analysis does not reproduce the entry's config", label, job.ID)
		}
		best := a.BestAlternative(steering.MetricRuntime)
		measured, err := h.Opt.Optimize(job.Root, best.Config)
		if err != nil {
			t.Fatalf("%s: %s: measured config: %v", label, job.ID, err)
		}
		served, err := h.Opt.Optimize(job.Root, e.Config)
		if err != nil {
			t.Fatalf("%s: %s: served config: %v", label, job.ID, err)
		}
		if measured.Cost != best.EstCost || measured.Signature != best.Signature {
			t.Fatalf("%s: %s: a fresh compile of the measured config is not its trial", label, job.ID)
		}
		if served.Plan.String() != measured.Plan.String() || served.Cost != best.EstCost || served.Signature != best.Signature {
			missed++
			t.Errorf("%s: %s: the served config compiles to cost %.6g signature %v, the measured plan has cost %.6g signature %v",
				label, job.ID, served.Cost, served.Signature, best.EstCost, best.Signature)
		}
	}
	if steered == 0 || steered != rep.Steered {
		t.Fatalf("%s: %d steered entries, report says %d", label, steered, rep.Steered)
	}
	if missed > 0 {
		t.Errorf("%s: %d of %d steered entries serve a plan other than the measured one", label, missed, steered)
	}
}
