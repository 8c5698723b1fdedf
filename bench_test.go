// Package steerq's root benchmarks measure the paths every analysis leans
// on — raw compilation, Algorithm 1's span, the discovery fan-out, a warm
// re-pass through the compile cache and one optimizer session's candidate
// sweep — and several fail outright when a budget they pin is exceeded.
//
// The paper's tables and figures have one regenerator:
//
//	go run ./cmd/steerq-bench -exp all
//
// (ci.sh diffs its output at a small scale against
// cmd/steerq-bench/testdata/exp_all.golden.txt); end-to-end throughput is
// measured by benchmark/.
package steerq_test

import (
	"errors"
	"runtime"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/experiments"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// benchConfig is the shared scaled-down configuration; every benchmark
// builds its own runner on it.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.002
	cfg.Candidates = 120
	cfg.ExecutePerJob = 8
	cfg.SampleFrac = 0.25
	cfg.LongJobFloor = 60
	cfg.LongJobCeil = 5400
	return cfg
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
// which exploration never reads. implfirings/compile is the implementation
// rules the sweep consulted per compile (the rest were read by a group state
// an earlier compile filed), next to what the same compiles consult one-shot,
// and must stay at or below three quarters of it (it measures 4.7 against
// 8.8). allocs/compile spreads the sweep's allocations — the explorations'
// rule payloads and one Result per compile; the physical phases allocate
// nothing — over its compiles, and must stay at or below 16 (it measures 10;
// 44 when every costed operator built a map).
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
	impl := r.Obs().Counter("steerq_cascades_rule_firings_total", "category", cascades.Implementation.String())
	implBefore := impl.Value()
	for _, cfg := range cfgs {
		if _, err := opt.OptimizeCost(job.Root, cfg); err != nil && !errors.Is(err, cascades.ErrNoPlan) {
			b.Fatal(err)
		}
	}
	oneShotImpl := float64(impl.Value()-implBefore) / float64(len(cfgs))
	before, implBefore := fresh.Value(), impl.Value()
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
	implPerCompile := float64(impl.Value()-implBefore) / float64(b.N*len(cfgs))
	b.ReportMetric(explores, "explores/op")
	b.ReportMetric(float64(len(cfgs)), "compiles/op")
	b.ReportMetric(perCompile, "allocs/compile")
	b.ReportMetric(implPerCompile, "implfirings/compile")
	b.ReportMetric(oneShotImpl, "oneshot-implfirings/compile")
	if explores > float64(len(cfgs))/4 {
		b.Fatalf("%v explorations for %d compiles: the session shares too little", explores, len(cfgs))
	}
	if implPerCompile > 0.75*oneShotImpl {
		b.Fatalf("%.2f implementation firings per compile against %.2f one-shot: the session reuses too few group states", implPerCompile, oneShotImpl)
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
