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
	"errors"
	"fmt"
	"io"
	"log"
	"os"
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
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; it writes what it reports to out.
func run(out io.Writer) error {
	// The generated Workload A catalog stands in for a data lake: its
	// streams carry both the statistics the optimizer sees and the hidden
	// true distributions the execution simulator uses.
	w := workload.Generate(workload.ProfileA(0.002, 2021))
	cat := w.Cat

	script, err := buildScript(cat)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "script:")
	fmt.Fprintln(out, script)

	root, err := scopeql.Compile(script, cat)
	if err != nil {
		return err
	}

	opt := rules.NewOptimizer(cost.NewEstimated(cat))
	rs := opt.Rules
	h := abtest.New(cat, opt, 7)

	// Run the discovery pipeline: compile and execute the job under the
	// default rule configuration, compute its span, sample candidate
	// configurations from the span, recompile them, execute the 10
	// cheapest, keep the best.
	p := steering.NewPipeline(h, xrand.New(11))
	p.MaxCandidates = 200
	job := &workload.Job{ID: "quickstart", Root: root, Script: script}
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		return err
	}

	// The default run every change below is measured against.
	def := a.Default
	fmt.Fprintf(out, "default: est cost %.2f, simulated runtime %.1fs\n", def.EstCost, def.Metrics.RuntimeSec)
	fmt.Fprintln(out, "default rule signature:")
	for _, id := range def.Signature.Ones() {
		ri, _ := rs.Info(id)
		fmt.Fprintf(out, "  %s\n", ri)
	}

	// The job span: every non-required rule that can influence this job's
	// final plan (Algorithm 1 of the paper).
	fmt.Fprintf(out, "\njob span: %d of %d non-required rules\n", a.Span.Count(), rs.NonRequired().Count())

	best := a.BestConfig(steering.MetricRuntime)
	fmt.Fprintf(out, "\npipeline: %d candidates compiled, %d executed\n", len(a.Candidates), len(a.Trials))
	fmt.Fprintf(out, "best configuration: runtime %.1fs (%+.1f%% vs default)\n",
		best.Metrics.RuntimeSec, a.PercentChange(best, steering.MetricRuntime))
	diff := steering.Diff(a.Default.Signature, best.Signature)
	fmt.Fprintln(out, "RuleDiff of the best plan:")
	for _, id := range diff.OnlyDefault {
		ri, _ := rs.Info(id)
		fmt.Fprintf(out, "  only in default plan: %s\n", ri.Name)
	}
	for _, id := range diff.OnlyNew {
		ri, _ := rs.Info(id)
		fmt.Fprintf(out, "  only in best plan:    %s\n", ri.Name)
	}
	return nil
}

// buildScript assembles a filter-join-aggregate job against whichever
// generated fact and dimension streams share a key domain, so the example
// works for any generator seed.
func buildScript(cat *catalog.Catalog) (string, error) {
	fact, dim, key, measure, ok := pickStreams(cat)
	if !ok {
		return "", errors.New("no joinable fact/dim pair found in the generated catalog")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "f = SELECT %s, %s FROM \"%s\" WHERE %s > 10;\n", key, measure, fact, measure)
	fmt.Fprintf(&b, "j = SELECT f.%s AS %s, f.%s AS %s FROM f INNER JOIN \"%s\" AS d ON f.%s == d.%s;\n",
		key, key, measure, measure, dim, key, key)
	fmt.Fprintf(&b, "a = SELECT %s, SUM(%s) AS total, COUNT(*) AS cnt FROM j GROUP BY %s;\n", key, measure, key)
	fmt.Fprintf(&b, "OUTPUT a TO \"out/quickstart\";\n")
	return b.String(), nil
}

func pickStreams(cat *catalog.Catalog) (fact, dim, key, measure string, ok bool) {
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
					return fn, dn, dkey, c.Name, true
				}
			}
		}
	}
	return "", "", "", "", false
}
