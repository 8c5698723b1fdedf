// Package steerq's root benchmarks regenerate every table and figure of the
// paper (see DESIGN.md's per-experiment index). Each benchmark runs the
// corresponding experiment at a laptop-friendly scale and reports the
// headline quantity the paper's artifact carries as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
//
// For the full printed tables/series use:
//
//	go run ./cmd/steerq-bench
package steerq_test

import (
	"errors"
	"runtime"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/experiments"
	"steerq/internal/learning"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// benchConfig is the shared scaled-down configuration. Benchmarks share one
// runner per b.Run tree via newRunner.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.002
	cfg.Candidates = 120
	cfg.ExecutePerJob = 8
	cfg.SampleFrac = 0.25
	cfg.LongJobFloor = 60
	cfg.LongJobCeil = 5400
	cfg.LearnMinGroup = 20
	cfg.LearnMinMedianSec = 15
	return cfg
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		t1, err := r.Table1(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t1.Total.Jobs), "jobs")
		b.ReportMetric(float64(t1.Total.UniqueSignatures), "signatures")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		t2, err := r.Table2("A", 0)
		if err != nil {
			b.Fatal(err)
		}
		unused := 0
		for _, row := range t2.Rows {
			unused += row.Unused
		}
		b.ReportMetric(float64(unused), "unused-rules")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		t3, err := r.Table3(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t3.Rows {
			b.ReportMetric(-row.DeltaPct, "pct-gain-"+row.Workload)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		t4, err := r.Table4(0, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t4.Rows)), "rulediffs")
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		run, err := r.Learning("B", 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range run.Groups {
			def := g.Eval.Summarize(func(o learning.JobOutcome) float64 { return o.Default })
			lrn := g.Eval.Summarize(func(o learning.JobOutcome) float64 { return o.Learned })
			if def.Mean > 0 {
				b.ReportMetric(100*(def.Mean-lrn.Mean)/def.Mean, "learned-gain-pct")
			}
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure1("A", 4, 65)
		if err != nil {
			b.Fatal(err)
		}
		improved := 0
		for _, c := range f.Comparisons {
			if c.PctChange < 0 {
				improved++
			}
		}
		b.ReportMetric(float64(improved), "improved-jobs")
		b.ReportMetric(float64(len(f.Comparisons)), "group-jobs")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure2("A", 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.LongJobFrac, "long-job-pct")
		b.ReportMetric(100*f.LongJobContainers, "long-job-container-pct")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure3("A", 0, 60)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Rows {
			if row.Category == "total" {
				b.ReportMetric(row.Mean, "span-rules-mean")
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure4("A", 0, 15)
		if err != nil {
			b.Fatal(err)
		}
		cheaper := 0
		for _, row := range f.Rows {
			if row.MinCost < row.DefaultCost {
				cheaper++
			}
		}
		b.ReportMetric(float64(cheaper), "jobs-with-cheaper-plans")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure5("A", 0)
		if err != nil {
			b.Fatal(err)
		}
		// Jobs in the low-cost, high-runtime corner (top-left 2x2 block).
		corner := f.Grid[0][0] + f.Grid[0][1] + f.Grid[1][0] + f.Grid[1][1]
		b.ReportMetric(float64(corner), "corner-jobs")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		var improved, total int
		var best float64
		for _, name := range []string{"A", "B", "C"} {
			f, err := r.Figure6(name, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range f.Changes {
				total++
				if c.PctChange < 0 {
					improved++
				}
				if c.PctChange < best {
					best = c.PctChange
				}
			}
		}
		b.ReportMetric(float64(improved)/float64(total)*100, "improved-pct")
		b.ReportMetric(-best, "best-gain-pct")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		f, err := r.Figure7("B", 0)
		if err != nil {
			b.Fatal(err)
		}
		// Tension indicator: CPU regressions when selecting for runtime.
		reg := 0
		for _, row := range f.Panels[0] {
			if row.CPUPct > 1 {
				reg++
			}
		}
		b.ReportMetric(float64(reg), "cpu-regressions")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		run, err := r.Learning("B", 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		improved, regressed := 0, 0
		for _, g := range run.Groups {
			for _, o := range g.Eval.PerJob {
				switch {
				case o.Learned < o.Default*0.99:
					improved++
				case o.Learned > o.Default*1.01:
					regressed++
				}
			}
		}
		b.ReportMetric(float64(improved), "improved-jobs")
		b.ReportMetric(float64(regressed), "regressed-jobs")
	}
}

// BenchmarkCompileDefault measures raw compilation throughput of the
// Cascades optimizer over a generated day — the substrate cost every
// pipeline stage pays.
func BenchmarkCompileDefault(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	jobs := r.Day("A", 0)
	h := r.Harness("A")
	cfg := h.Opt.Rules.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, err := h.Opt.Optimize(j.Root, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLongJobs is the fixed job set of the pipeline benchmarks.
func benchLongJobs(b *testing.B, r *experiments.Runner, n int) []*workload.Job {
	long := r.LongJobs("A", 0)
	if len(long) > n {
		long = long[:n]
	}
	if len(long) == 0 {
		b.Fatal("no long-running jobs at bench scale")
	}
	return long
}

// benchPipelineBuild measures the level of the discovery pipeline that fans
// out — one BuildBundle over a fixed job set: group, then analyze every group
// representative on `workers` workers (one analysis is serial). No cache, so
// the serial and parallel numbers are comparable.
func benchPipelineBuild(b *testing.B, workers int) {
	r := experiments.NewRunner(benchConfig())
	long := benchLongJobs(b, r, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := r.Pipeline("A")
		p.Workers, p.Harness.Workers = workers, workers
		p.Cache = nil
		if _, _, err := p.BuildBundle(long, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(workers), "workers")
}

func BenchmarkPipelineWorkers1(b *testing.B) { benchPipelineBuild(b, 1) }

func BenchmarkPipelineWorkers4(b *testing.B) { benchPipelineBuild(b, 4) }

// BenchmarkPipelineCached measures the steady state of recurring-workload
// experiments: every (job, config) compilation of the compile-heavy half
// (span + M candidate recompilations) is served from the shared compile
// cache.
func BenchmarkPipelineCached(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	long := benchLongJobs(b, r, 4)
	p := r.Pipeline("A")
	p.Cache = steering.NewCompileCache()
	recompile := func() {
		for _, j := range long {
			if _, err := p.Recompile(j); err != nil {
				b.Fatal(err)
			}
		}
	}
	recompile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recompile()
	}
	b.ReportMetric(100*p.Cache.Stats().HitRate(), "hit-%")
}

// BenchmarkBundleRepass measures a re-analysis of recurring jobs: one
// BuildBundle over the pipeline benchmarks' job set on a pipeline whose
// compile cache an earlier pass filled. compiles/op is the optimizer calls per
// pass and must read 0 — grouping, span, candidates and trials all resolve
// from the cache, and only the executions are repeated.
func BenchmarkBundleRepass(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	long := benchLongJobs(b, r, 8)
	p := r.Pipeline("A")
	p.Workers, p.Harness.Workers = 1, 1
	build := func() {
		if _, _, err := p.BuildBundle(long, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	compiles := func() uint64 {
		const name = "steerq_cascades_compiles_total"
		return r.Obs().Counter(name, "outcome", "ok").Value() + r.Obs().Counter(name, "outcome", "noplan").Value()
	}
	build()
	before := compiles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.StopTimer()
	perOp := float64(compiles()-before) / float64(b.N)
	b.ReportMetric(perOp, "compiles/op")
	if perOp != 0 {
		b.Fatalf("a warm BuildBundle made %v optimizer calls", perOp)
	}
}

// BenchmarkSessionCandidates measures what one analysis sends through one
// optimizer session: the span probes and 300 candidate configurations of the
// widest-span job of the pipeline benchmarks' set, plan-less, on one pooled
// arena. explores/op is the logical explorations the sweep
// actually ran (the rest shared an explored memo) and must stay at or below a
// quarter of compiles/op — candidates differ mostly in implementation bits,
// which exploration never reads. allocs/compile spreads the sweep's
// allocations — the explorations' rule payloads and one Result per compile;
// the physical phases allocate nothing — over its compiles, and must stay at
// or below 16 (it measures 10; 44 when every costed operator built a map).
func BenchmarkSessionCandidates(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	opt := r.Harness("A").Opt
	var job *workload.Job
	var cfgs []bitvec.Vector
	widest := -1
	for _, j := range benchLongJobs(b, r, 8) {
		var probes []bitvec.Vector
		span, err := steering.JobSpanFunc(opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
			probes = append(probes, cfg)
			res, err := opt.OptimizeCost(j.Root, cfg)
			if err != nil {
				return bitvec.Vector{}, err
			}
			return res.Signature, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if span.Count() > widest {
			widest, job = span.Count(), j
			cfgs = append(probes, steering.CandidateConfigs(span, opt.Rules, 300, xrand.New(1).Derive("bench", j.ID))...)
		}
	}
	fresh := r.Obs().Counter("steerq_cascades_explorations_total", "outcome", "fresh")
	before := fresh.Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := opt.NewSession(job.Root)
		for _, cfg := range cfgs {
			if _, err := sess.Optimize(cfg, false); err != nil && !errors.Is(err, cascades.ErrNoPlan) {
				b.Fatal(err)
			}
		}
		sess.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	explores := float64(fresh.Value()-before) / float64(b.N)
	perCompile := float64(ms.Mallocs-mallocs) / float64(b.N*len(cfgs))
	b.ReportMetric(explores, "explores/op")
	b.ReportMetric(float64(len(cfgs)), "compiles/op")
	b.ReportMetric(perCompile, "allocs/compile")
	if explores > float64(len(cfgs))/4 {
		b.Fatalf("%v explorations for %d compiles: the session shares too little", explores, len(cfgs))
	}
	if perCompile > 16 {
		b.Fatalf("%.1f allocations per compile, budget 16: the physical phase allocates again", perCompile)
	}
}

// BenchmarkJobSpan measures the cost of Algorithm 1 per job.
func BenchmarkJobSpan(b *testing.B) {
	r := experiments.NewRunner(benchConfig())
	jobs := r.Day("A", 0)
	h := r.Harness("A")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		if _, err := steering.JobSpan(h.Opt, j.Root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRandomVsGuided reports how often cost-guided selection
// beats uniform-random selection of executed configurations (§6.2).
func BenchmarkAblationRandomVsGuided(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		a, err := r.RandomVsGuided("A", 0, 8, 6)
		if err != nil {
			b.Fatal(err)
		}
		guided, random := 0, 0
		for _, row := range a.Rows {
			if row.GuidedBest < row.RandomBest*0.99 {
				guided++
			} else if row.RandomBest < row.GuidedBest*0.99 {
				random++
			}
		}
		b.ReportMetric(float64(guided), "guided-wins")
		b.ReportMetric(float64(random), "random-wins")
	}
}

// BenchmarkAblationSpanSearch reports the search-efficiency gain of the job
// span (Definition 5.1) over naive whole-catalog sampling.
func BenchmarkAblationSpanSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		a, err := r.SpanSearch("A", 0, 15, 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.SpanDistinct, "span-distinct-per-100")
		b.ReportMetric(a.NaiveDistinct, "naive-distinct-per-100")
	}
}

// BenchmarkAblationGrouping reports the group-size advantage of
// rule-signature grouping over template grouping (§6.4).
func BenchmarkAblationGrouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		a, err := r.Grouping("B", 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.TemplateGroups), "template-groups")
		b.ReportMetric(float64(a.SignatureGroups), "signature-groups")
		b.ReportMetric(float64(a.SignatureMax), "largest-signature-group")
	}
}

// BenchmarkExtensionIndependence reports the configuration-space reduction
// achieved by the §8 rule-independence prober.
func BenchmarkExtensionIndependence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchConfig())
		e, err := r.Extensions("A", 0, 5)
		if err != nil {
			b.Fatal(err)
		}
		var naive, part float64
		for _, row := range e.Independence {
			naive += row.NaiveSpace
			part += row.PartSpace
		}
		if part > 0 {
			b.ReportMetric(naive/part, "space-reduction-x")
		}
	}
}
