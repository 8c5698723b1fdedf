package steering_test

import (
	"testing"

	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

func TestIterativeSearchFindsImprovements(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(21))
	p.MaxCandidates = 120
	p.ExecutePerJob = 9
	a, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := steering.IterativeSearch(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) == 0 {
		t.Fatal("iterative search executed nothing")
	}
	// Rounds are labeled and ordered.
	last := -1
	for _, tr := range res.Trials {
		if tr.Round < last {
			t.Fatal("trials out of round order")
		}
		last = tr.Round
		if tr.Runtime <= 0 {
			t.Fatal("trial without runtime")
		}
	}
	if res.Best != nil && res.Best.Runtime >= a.Default.Metrics.RuntimeSec {
		t.Fatal("Best does not beat the default")
	}
}

func TestIterativeSearchDeterministic(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	run := func() []steering.RoundTrial {
		p := steering.NewPipeline(h, xrand.New(21))
		p.MaxCandidates = 90
		p.ExecutePerJob = 6
		a, err := p.Recompile(job)
		if err != nil {
			t.Fatal(err)
		}
		res, err := steering.IterativeSearch(p, a)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trials
	}
	t1 := run()
	t2 := run()
	if len(t1) != len(t2) {
		t.Fatalf("trial counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Runtime != t2[i].Runtime || !t1[i].Config.Equal(t2[i].Config) {
			t.Fatal("iterative search not deterministic")
		}
	}
}

func TestIterativeSearchEmptySpan(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(21))
	a, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	a.Span = a.Span.AndNot(a.Span) // clear
	res, err := steering.IterativeSearch(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 0 || res.Best != nil {
		t.Fatal("empty span should yield no trials")
	}
}

// TestIterativeSearchSpendsPipelineBudgets: the search splits the
// pipeline's M compiles and K executions into three rounds, so it labels
// trials 0..2, executes at most K/3 per round and compiles at most M
// configurations in all.
func TestIterativeSearchSpendsPipelineBudgets(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	reg := obs.New()
	h.Opt.SetObs(reg)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(21))
	p.MaxCandidates = 90
	p.ExecutePerJob = 6
	a, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	before := compiles(reg)
	res, err := steering.IterativeSearch(p, a)
	if err != nil {
		t.Fatal(err)
	}
	spent := compiles(reg) - before
	if len(res.Trials) == 0 {
		t.Fatal("iterative search executed nothing")
	}
	perRound := map[int]int{}
	for _, tr := range res.Trials {
		if tr.Round < 0 || tr.Round > 2 {
			t.Fatalf("trial labeled round %d, want one of 0..2", tr.Round)
		}
		perRound[tr.Round]++
	}
	for r, n := range perRound {
		if n > 2 {
			t.Fatalf("round %d executed %d trials, want at most K/3 = 2", r, n)
		}
	}
	if spent > 90 {
		t.Fatalf("search compiled %d times, want at most M = 90", spent)
	}
	t.Logf("%d trials over %d rounds, %d compiles", len(res.Trials), len(perRound), spent)
}

func TestProbeIndependence(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(7))
	p.MaxCandidates = 10
	a, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := steering.ProbeIndependence(p, a)
	if err != nil {
		t.Fatal(err)
	}
	// Every span rule appears in exactly one group.
	seen := make(map[int]bool)
	for _, g := range ind.Groups {
		for _, id := range g {
			if seen[id] {
				t.Fatalf("rule %d in two groups", id)
			}
			seen[id] = true
			if !a.Span.Get(id) {
				t.Fatalf("rule %d outside the span", id)
			}
		}
	}
	if len(seen) != a.Span.Count() {
		t.Fatalf("groups cover %d of %d span rules", len(seen), a.Span.Count())
	}
	// The partitioned space never exceeds the naive space, and shrinks
	// whenever there is more than one group.
	naive, part := ind.SearchSpace(a.Span.Count())
	if part > naive {
		t.Fatalf("partitioned space %v exceeds naive %v", part, naive)
	}
	if len(ind.Groups) > 1 && part >= naive {
		t.Fatalf("independence found (%d groups) but space did not shrink", len(ind.Groups))
	}
	t.Logf("span=%d groups=%d compilations=%d space %v -> %v",
		a.Span.Count(), len(ind.Groups), ind.Compilations, naive, part)
}

func TestSearchSpaceArithmetic(t *testing.T) {
	ind := &steering.Independence{Groups: [][]int{{1, 2}, {3, 4, 5}}}
	naive, part := ind.SearchSpace(5)
	if naive != 32 || part != 12 {
		t.Fatalf("SearchSpace = %v, %v; the paper's example expects 32 -> 12", naive, part)
	}
}
