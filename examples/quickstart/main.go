// Quickstart: compile one SCOPE-like job, inspect its rule signature, then
// steer it — discover a better rule configuration with the offline pipeline
// and compare simulated executions.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"steerq/internal/abtest"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func main() {
	// The generated Workload A catalog stands in for a data lake: its
	// streams carry both the statistics the optimizer sees and the hidden
	// true distributions the execution simulator uses.
	w := workload.Generate(workload.ProfileA(0.002, 2021))
	cat := w.Cat

	script := buildScript(cat)
	fmt.Println("script:")
	fmt.Println(script)

	root, err := scopeql.Compile(script, cat)
	if err != nil {
		log.Fatal(err)
	}

	opt := rules.NewOptimizer(cost.NewEstimated(cat))
	rs := opt.Rules
	h := abtest.New(cat, opt, 7)

	// Compile and execute under the default rule configuration.
	def := h.RunConfig(root, rs.DefaultConfig(), 0, "quickstart")
	if def.Err != nil {
		log.Fatal(def.Err)
	}
	fmt.Printf("default: est cost %.2f, simulated runtime %.1fs\n", def.EstCost, def.Metrics.RuntimeSec)
	fmt.Println("default rule signature:")
	for _, id := range def.Signature.Ones() {
		ri, _ := rs.Info(id)
		fmt.Printf("  %s\n", ri)
	}

	// The job span: every non-required rule that can influence this job's
	// final plan (Algorithm 1 of the paper).
	span, err := steering.JobSpan(opt, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\njob span: %d of %d non-required rules\n", span.Count(), len(rs.NonRequiredIDs()))

	// Run the discovery pipeline: sample candidate configurations from the
	// span, recompile them, execute the 10 cheapest, keep the best.
	p := steering.NewPipeline(h, xrand.New(11))
	p.MaxCandidates = 200
	job := &workload.Job{ID: "quickstart", Root: root, Script: script}
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	best := a.BestConfig(steering.MetricRuntime)
	fmt.Printf("\npipeline: %d candidates compiled, %d executed\n", len(a.Candidates), len(a.Trials))
	fmt.Printf("best configuration: runtime %.1fs (%+.1f%% vs default)\n",
		best.Metrics.RuntimeSec, a.PercentChange(best, steering.MetricRuntime))
	diff := steering.Diff(a.Default.Signature, best.Signature)
	fmt.Println("RuleDiff of the best plan:")
	for _, id := range diff.OnlyDefault {
		ri, _ := rs.Info(id)
		fmt.Printf("  only in default plan: %s\n", ri.Name)
	}
	for _, id := range diff.OnlyNew {
		ri, _ := rs.Info(id)
		fmt.Printf("  only in best plan:    %s\n", ri.Name)
	}
}

// buildScript assembles a filter-join-aggregate job against whichever
// generated fact and dimension streams share a key domain, so the example
// works for any generator seed.
func buildScript(cat *catalog.Catalog) string {
	fact, dim, key, measure, filterCol := pickStreams(cat)
	var b strings.Builder
	fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s > 10;\n", key, measure, fact, measure)
	fmt.Fprintf(&b, "j = SELECT f.%s AS %s, f.%s AS %s FROM f INNER JOIN \"%s\" AS d ON f.%s == d.%s;\n",
		key, key, measure, measure, dim, key, key)
	fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM j GROUP BY %s;\n", key, measure, key)
	fmt.Fprintf(&b, "OUTPUT a TO \"out/quickstart\";\n")
	_ = filterCol
	return b.String()
}

func pickStreams(cat *catalog.Catalog) (fact, dim, key, measure, filterCol string) {
	names := cat.StreamNames()
	// Find a dimension stream first: its first column is its key domain.
	for _, dn := range names {
		if !strings.Contains(dn, "/dim_") {
			continue
		}
		dkey := cat.Stream(dn).Columns[0].Name
		for _, fn := range names {
			if !strings.Contains(fn, "/fact_") {
				continue
			}
			st := cat.Stream(fn)
			if st.Column(dkey) == nil {
				continue
			}
			// Need a numeric measure column distinct from the key.
			for _, c := range st.Columns {
				if c.Name != dkey && c.Max > 100 && c.TrueDistinct > 1000 {
					return fn, dn, dkey, c.Name, ""
				}
			}
		}
	}
	log.Fatal("no joinable fact/dim pair found in the generated catalog")
	return
}
