// Recurring: the Figure 1 scenario. Discover a good rule configuration for
// one job, then apply that same configuration to every job sharing its rule
// signature (its "job group") across a week of daily arrivals — the paper's
// extrapolation step (§6.4).
//
// Run with:
//
//	go run ./examples/recurring
package main

import (
	"context"
	"fmt"
	"log"

	"steerq/internal/abtest"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func main() {
	const days = 7
	w := workload.Generate(workload.ProfileA(0.003, 2021))
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	h := abtest.New(w.Cat, opt, 7)
	grouper := steering.NewGrouper(h)

	// Collect a week of jobs and group them by default rule signature.
	var corpus []*workload.Job
	for d := 0; d < days; d++ {
		corpus = append(corpus, w.Day(d)...)
	}
	groups, err := grouper.Group(corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d jobs over %d days fall into %d rule-signature job groups\n",
		len(corpus), days, len(groups))

	// Run the discovery pipeline on base jobs from the largest groups until
	// one yields a configuration that beats its own default noticeably.
	p := steering.NewPipeline(h, xrand.New(3))
	p.MaxCandidates = 250
	for _, g := range groups {
		if len(g.Jobs) < 10 {
			continue
		}
		base := g.Jobs[0]
		// Focus on long-running groups: short jobs' runtime variance makes
		// extrapolated improvements indistinguishable from noise (§3.1.1).
		probe := h.RunConfig(base.Root, opt.Rules.DefaultConfig(), base.Day, base.ID+"/probe")
		if probe.Err != nil || probe.Metrics.RuntimeSec < 120 {
			continue
		}
		a, err := p.AnalyzeCtx(context.Background(), base)
		if err != nil {
			continue
		}
		best := a.BestAlternative(steering.MetricRuntime)
		if best == nil {
			continue
		}
		pct := a.PercentChange(best, steering.MetricRuntime)
		if pct > -10 {
			continue // not worth extrapolating
		}
		fmt.Printf("\nbase job %s: best configuration is %.1f%% faster than default\n", base.ID, pct)
		diff := steering.Diff(a.Default.Signature, best.Signature)
		fmt.Printf("RuleDiff: -%v +%v\n",
			ruleNames(opt.Rules, diff.OnlyDefault), ruleNames(opt.Rules, diff.OnlyNew))

		// Extrapolate the configuration to the rest of the group across the
		// week.
		rest := g.Jobs[1:]
		if len(rest) > 65 {
			rest = rest[:65]
		}
		cmp := steering.Extrapolate(h, best.Config, rest)
		improved, regressed := 0, 0
		for _, c := range cmp {
			marker := " "
			switch {
			case c.PctChange < -1:
				improved++
				marker = "+"
			case c.PctChange > 1:
				regressed++
				marker = "-"
			}
			fmt.Printf("  %s %-14s default=%7.0fs steered=%7.0fs (%+6.1f%%)\n",
				marker, c.Job.ID, c.Default.Metrics.RuntimeSec, c.New.Metrics.RuntimeSec, c.PctChange)
		}
		fmt.Printf("extrapolation over %d jobs: %d improved, %d regressed\n",
			len(cmp), improved, regressed)
		if regressed > 0 {
			fmt.Println("regressions motivate the learning step (examples/learned).")
		}
		return
	}
	fmt.Println("no group with a >10% base improvement found at this scale; try another seed")
}

func ruleNames(rs *cascades.RuleSet, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if ri, ok := rs.Info(id); ok {
			out = append(out, ri.Name)
		}
	}
	return out
}
