// Extensions: the §8 future-work directions, end to end on one job.
//
//  1. Feedback-guided iterative search: execution results reweight which rule
//     flips later search rounds try.
//  2. Rule-independence discovery: probe which span rules interact, partition
//     the span, and shrink the configuration space.
//  3. Deployment: export the discovered configuration as a SCOPE-style plan
//     hint (§3.3) and parse it back.
//
// Run with:
//
//	go run ./examples/extensions
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func main() {
	w := workload.Generate(workload.ProfileA(0.003, 2021))
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	h := abtest.New(w.Cat, opt, 7)
	p := steering.NewPipeline(h, xrand.New(31))
	p.MaxCandidates = 150

	// Pick a long-running job.
	var job *workload.Job
	for _, j := range w.Day(0) {
		t := h.RunConfig(j.Root, opt.Rules.DefaultConfig(), j.Day, j.ID+"/probe")
		if t.Err == nil && t.Metrics.RuntimeSec > 300 {
			job = j
			break
		}
	}
	if job == nil {
		log.Fatal("no long-running job at this scale")
	}
	a, err := p.Recompile(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s: default runtime %.0fs, span %d rules\n",
		job.ID, a.Default.Metrics.RuntimeSec, a.Span.Count())

	// 1. Feedback-guided iterative search.
	it := steering.NewIterativeSearch(p)
	it.Rounds = 3
	it.PerRound = 50
	it.ExecutePerRound = 4
	res, err := it.Run(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niterative search: %d trials over %d rounds\n", len(res.Trials), it.Rounds)
	for _, t := range res.Trials {
		marker := " "
		if res.Best != nil && t.Config.Equal(res.Best.Config) {
			marker = "*"
		}
		fmt.Printf("  %s round %d: %.0fs (est cost %.1f)\n", marker, t.Round, t.Runtime, t.EstCost)
	}
	if res.Best != nil {
		fmt.Printf("best: %.0fs (%+.1f%% vs default)\n", res.Best.Runtime,
			100*(res.Best.Runtime-a.Default.Metrics.RuntimeSec)/a.Default.Metrics.RuntimeSec)
	}

	// 2. Rule-independence discovery.
	ind, err := steering.ProbeIndependence(p, a)
	if err != nil {
		log.Fatal(err)
	}
	naive, part := ind.SearchSpace(a.Span.Count())
	fmt.Printf("\nindependence probe: %d compilations partition the %d-rule span into %d groups\n",
		ind.Compilations, a.Span.Count(), len(ind.Groups))
	for gi, g := range ind.Groups {
		names := make([]string, 0, len(g))
		for _, id := range g {
			ri, _ := opt.Rules.Info(id)
			names = append(names, ri.Name)
		}
		fmt.Printf("  group %d: %v\n", gi+1, names)
	}
	fmt.Printf("configuration space: %.0f -> %.0f (%.1fx smaller)\n", naive, part, naive/part)

	// 3. Deployment as a plan hint.
	p.ExecutePerJob = 8
	p.Execute(a)
	if rec := steering.Recommend(a, opt.Rules); rec != nil {
		fmt.Printf("\nrecommendation for job group %s...:\n%s", rec.GroupSignature[:16], rec.Hints)
		blob, _ := json.MarshalIndent(rec, "", "  ")
		fmt.Printf("as JSON for the workload owner:\n%s\n", blob)
		// A consumer reconstructs the configuration from the hint text.
		cfg, err := steering.ParseHints(rec.Hints, opt.Rules)
		if err != nil {
			log.Fatal(err)
		}
		check := h.RunConfig(job.Root, cfg, job.Day, job.ID+"/from-hints")
		if check.Err != nil {
			log.Fatal(check.Err)
		}
		fmt.Printf("re-executed from hints: %.0fs\n", check.Metrics.RuntimeSec)
	} else {
		fmt.Println("\nno improving configuration found for this job")
	}
}
