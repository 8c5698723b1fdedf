package experiments

import (
	"bytes"
	"strings"
	"testing"

	"steerq/internal/learning"
)

// tinyConfig keeps test runs fast while exercising every experiment path.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	cfg.Candidates = 60
	cfg.ExecutePerJob = 6
	cfg.SampleFrac = 0.3
	cfg.LongJobFloor = 60
	cfg.LongJobCeil = 5400
	return cfg
}

func TestTablesSmoke(t *testing.T) {
	r := NewRunner(tinyConfig())
	var buf bytes.Buffer

	t1, err := r.Table1(0)
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	t1.Render(&buf)
	if t1.Total.Jobs == 0 {
		t.Fatal("table1: no jobs")
	}

	t2, err := r.Table2("A", 0)
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	t2.Render(&buf)
	total := 0
	for _, row := range t2.Rows {
		total += row.Rules
		if row.Unused > row.Rules {
			t.Errorf("table2: unused %d > rules %d for %s", row.Unused, row.Rules, row.Category)
		}
	}
	if total != 256 {
		t.Fatalf("table2: rule census %d, want 256", total)
	}

	t3, err := r.Table3(0)
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	t3.Render(&buf)
	for _, row := range t3.Rows {
		if row.Queries == 0 {
			t.Errorf("table3: workload %s analyzed no queries", row.Workload)
		}
		if row.DeltaPct > 0 {
			t.Errorf("table3: workload %s mean best-config change %+.1f%% should not be positive", row.Workload, row.DeltaPct)
		}
	}

	t4, err := r.Table4(0, 3)
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	t4.Render(&buf)
	if len(t4.Rows) == 0 {
		t.Fatal("table4: no RuleDiff rows")
	}

	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("render output incomplete")
	}
	t.Logf("\n%s", buf.String())
}

func TestFiguresSmoke(t *testing.T) {
	r := NewRunner(tinyConfig())
	var buf bytes.Buffer

	f2, err := r.Figure2("A", 0)
	if err != nil {
		t.Fatalf("figure2: %v", err)
	}
	f2.Render(&buf)
	if f2.RuntimeHist.Total == 0 {
		t.Fatal("figure2: empty runtime distribution")
	}
	if f2.LongJobContainers < f2.LongJobFrac {
		t.Errorf("figure2: long jobs should hold a disproportionate container share (frac=%.2f containers=%.2f)",
			f2.LongJobFrac, f2.LongJobContainers)
	}

	f3, err := r.Figure3("A", 0, 40)
	if err != nil {
		t.Fatalf("figure3: %v", err)
	}
	f3.Render(&buf)

	f4, err := r.Figure4("A", 0, 20)
	if err != nil {
		t.Fatalf("figure4: %v", err)
	}
	f4.Render(&buf)
	anyCheaper := false
	for _, row := range f4.Rows {
		if row.MinCost < row.DefaultCost {
			anyCheaper = true
		}
	}
	if !anyCheaper {
		t.Error("figure4: expected some recompiled plans with estimated cost below the default (the §5.3 paradox)")
	}

	f5, err := r.Figure5("A", 0)
	if err != nil {
		t.Fatalf("figure5: %v", err)
	}
	f5.Render(&buf)

	f6, err := r.Figure6("A", 0)
	if err != nil {
		t.Fatalf("figure6: %v", err)
	}
	f6.Render(&buf)
	improved := 0
	for _, c := range f6.Changes {
		if c.PctChange < 0 {
			improved++
		}
	}
	if improved*2 < len(f6.Changes) {
		t.Errorf("figure6: only %d/%d jobs improved; the paper finds improvements for a majority", improved, len(f6.Changes))
	}

	f7, err := r.Figure7("B", 0)
	if err != nil {
		t.Fatalf("figure7: %v", err)
	}
	f7.Render(&buf)

	f1, err := r.Figure1("A", 4, 65)
	if err != nil {
		t.Fatalf("figure1: %v", err)
	}
	f1.Render(&buf)

	t.Logf("\n%s", buf.String())
}

func TestLearningSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("learning experiment is slow")
	}
	cfg := tinyConfig()
	cfg.Scale = 0.003
	cfg.LearnMinGroup = 20
	cfg.LearnMinMedianSec = 15
	r := NewRunner(cfg)
	run, err := r.Learning("B", 8, 2)
	if err != nil {
		t.Fatalf("learning: %v", err)
	}
	var buf bytes.Buffer
	(&Table5{Run: run}).Render(&buf)
	(&Figure8{Run: run}).Render(&buf)
	t.Logf("\n%s", buf.String())
	if len(run.Groups) == 0 {
		t.Fatal("learning: no job groups selected")
	}
	for _, g := range run.Groups {
		def := g.Eval.Summarize(func(o learning.JobOutcome) float64 { return o.Default })
		best := g.Eval.Summarize(func(o learning.JobOutcome) float64 { return o.Best })
		if best.Mean > def.Mean {
			t.Errorf("group %d: oracle mean %.0f exceeds default mean %.0f", g.Index, best.Mean, def.Mean)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	r := NewRunner(tinyConfig())
	rvg, err := r.RandomVsGuided("A", 0, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	guided, random := 0, 0
	for _, row := range rvg.Rows {
		if row.GuidedBest > row.DefaultRT {
			t.Errorf("%s: guided best %v above default %v", row.Job, row.GuidedBest, row.DefaultRT)
		}
		if row.GuidedBest < row.RandomBest*0.99 {
			guided++
		} else if row.RandomBest < row.GuidedBest*0.99 {
			random++
		}
	}
	if guided < random {
		t.Errorf("random selection beat guided (%d vs %d) — §6.2 expects the cost signal to win", random, guided)
	}

	ss, err := r.SpanSearch("A", 0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ss.SpanDistinct < ss.NaiveDistinct {
		t.Errorf("span-guided search less efficient than naive: %.1f vs %.1f distinct plans/100",
			ss.SpanDistinct, ss.NaiveDistinct)
	}

	gr, err := r.Grouping("B", 3)
	if err != nil {
		t.Fatal(err)
	}
	if gr.SignatureGroups > gr.TemplateGroups {
		t.Errorf("signature groups (%d) should be coarser than template groups (%d)",
			gr.SignatureGroups, gr.TemplateGroups)
	}
	if gr.SignatureMax < gr.TemplateMax {
		t.Errorf("largest signature group (%d) smaller than largest template group (%d)",
			gr.SignatureMax, gr.TemplateMax)
	}
	var buf bytes.Buffer
	rvg.Render(&buf)
	ss.Render(&buf)
	gr.Render(&buf)
	t.Logf("\n%s", buf.String())
}

func TestExtensionsSmoke(t *testing.T) {
	r := NewRunner(tinyConfig())
	e, err := r.Extensions("A", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Iterative) == 0 || len(e.Independence) == 0 {
		t.Fatalf("extensions produced %d/%d rows", len(e.Iterative), len(e.Independence))
	}
	for _, row := range e.Iterative {
		if row.OneShotBest > row.DefaultRT+1e-9 || row.IterativeBest > row.DefaultRT+1e-9 {
			t.Fatalf("%s: a best exceeds the default: %+v", row.Job, row)
		}
	}
	for _, row := range e.Independence {
		if row.PartSpace > row.NaiveSpace {
			t.Fatalf("%s: partitioned space exceeds naive: %+v", row.Job, row)
		}
		if row.Groups < 1 || row.Groups > row.SpanSize {
			t.Fatalf("%s: nonsense group count: %+v", row.Job, row)
		}
	}
	var buf bytes.Buffer
	e.Render(&buf)
	t.Logf("\n%s", buf.String())
}

// TestCheckedPlansSmoke runs a small day end-to-end with STEERQ_CHECK_PLANS
// set: every plan the harness executes passes cascades.Validate or the run
// panics. This is the acceptance gate for the validator's invariants against
// real optimizer output.
func TestCheckedPlansSmoke(t *testing.T) {
	t.Setenv("STEERQ_CHECK_PLANS", "1")
	r := NewRunner(tinyConfig())
	if !r.Executor("A").CheckPlans {
		t.Fatal("harness executor did not pick up STEERQ_CHECK_PLANS")
	}
	jobs := r.Day("A", 0)
	if len(jobs) == 0 {
		t.Fatal("empty day")
	}
	if len(jobs) > 25 {
		jobs = jobs[:25]
	}
	for _, j := range jobs {
		tr := r.DefaultTrial("A", j)
		if tr.Metrics.RuntimeSec <= 0 {
			t.Fatalf("job %s: bad checked trial %+v", j.ID, tr.Metrics)
		}
	}
}
