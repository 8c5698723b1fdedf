package steering_test

import (
	"testing"

	"steerq/internal/steering"
	"steerq/internal/xrand"
)

func TestIterativeSearchFindsImprovements(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(21))
	p.MaxCandidates = 40
	p.ExecutePerJob = 3
	a, err := p.Recompile(job)
	if err != nil {
		t.Fatal(err)
	}
	it := steering.NewIterativeSearch(p)
	it.Rounds = 3
	it.PerRound = 40
	it.ExecutePerRound = 3
	res, err := it.Run(a)
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
		p.MaxCandidates = 30
		a, err := p.Recompile(job)
		if err != nil {
			t.Fatal(err)
		}
		it := steering.NewIterativeSearch(p)
		it.Rounds = 2
		it.PerRound = 30
		it.ExecutePerRound = 2
		res, err := it.Run(a)
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
	it := steering.NewIterativeSearch(p)
	res, err := it.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 0 || res.Best != nil {
		t.Fatal("empty span should yield no trials")
	}
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
