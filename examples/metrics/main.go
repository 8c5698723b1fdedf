// Metrics: the Figure 7 scenario. For a set of Workload B jobs, execute ten
// alternative rule configurations each, then choose the best configuration
// per metric — runtime, CPU time, or I/O time — and observe the cross-metric
// tension: optimizing one metric frequently regresses another (§6.2).
//
// Run with:
//
//	go run ./examples/metrics
package main

import (
	"context"
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
	w := workload.Generate(workload.ProfileB(0.004, 2021))
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	h := abtest.New(w.Cat, opt, 7)
	p := steering.NewPipeline(h, xrand.New(5))
	p.MaxCandidates = 200
	p.ExecutePerJob = 10

	var analyses []*steering.Analysis
	for _, j := range w.Day(0) {
		probe := h.RunConfig(j.Root, opt.Rules.DefaultConfig(), j.Day, j.ID+"/probe")
		if probe.Err != nil || probe.Metrics.RuntimeSec < 60 {
			continue
		}
		a, err := p.AnalyzeCtx(context.Background(), j)
		if err != nil {
			log.Printf("analyze %s: %v", j.ID, err)
			continue
		}
		if len(a.Trials) > 0 {
			analyses = append(analyses, a)
		}
		if len(analyses) >= 15 {
			break
		}
	}
	if len(analyses) == 0 {
		log.Fatal("no jobs analyzed; increase the scale")
	}

	metrics := []steering.Metric{steering.MetricRuntime, steering.MetricCPU, steering.MetricIO}
	for _, pickBy := range metrics {
		fmt.Printf("\nselecting the best configuration per job by %s:\n", pickBy)
		fmt.Printf("  %-14s %10s %10s %10s\n", "job", "runtime", "cpu-time", "io-time")
		regress := map[steering.Metric]int{}
		for _, a := range analyses {
			best := a.BestAlternative(pickBy)
			if best == nil {
				continue
			}
			var cells []string
			for _, m := range metrics {
				pct := a.PercentChange(best, m)
				if pct > 1 {
					regress[m]++
				}
				cells = append(cells, fmt.Sprintf("%+8.1f%%", pct))
			}
			fmt.Printf("  %-14s %10s %10s %10s\n", a.Job.ID, cells[0], cells[1], cells[2])
		}
		fmt.Printf("  regressions: runtime=%d cpu=%d io=%d of %d jobs\n",
			regress[steering.MetricRuntime], regress[steering.MetricCPU], regress[steering.MetricIO], len(analyses))
	}
	fmt.Println("\npicking for one metric regresses others — the tension of Figure 7;")
	fmt.Println("a deployment would run separate per-metric models and choose by cluster load.")
}
