package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/experiments"
	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// perfConfig is one measured pipeline configuration in BENCH_pipeline.json.
type perfConfig struct {
	Workers     int     `json:"workers"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	SecPerOp    float64 `json:"sec_per_op"`
	Skipped     bool    `json:"skipped,omitempty"`
	// Oversubscribed marks a leg run with GOMAXPROCS above NumCPU (forced
	// via STEERQ_BENCH_FORCE_PARALLEL=1 or a small machine): the number is
	// recorded rather than skipped, but it is not a scaling measurement and
	// downstream gates must not treat it as one.
	Oversubscribed bool   `json:"oversubscribed,omitempty"`
	Note           string `json:"note,omitempty"`
}

// perfScalingLeg is one worker count of the scaling sweep: cold-cache
// BuildBundle over the Zipf-skewed hot-template job set, with the group
// fan-out's scheduler counters from one representative pass.
type perfScalingLeg struct {
	Workers    int     `json:"workers"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NsPerOp    int64   `json:"ns_per_op"`
	SecPerOp   float64 `json:"sec_per_op"`
	Iterations int     `json:"iterations"`
	// Speedup is legs[0].NsPerOp / NsPerOp — throughput relative to the
	// one-worker leg of the same sweep.
	Speedup float64 `json:"speedup"`
	// Items/Steals are per-op counters of the group fan-out's scheduler
	// (steerq_par_items_total / steerq_par_steals_total): job groups
	// analyzed — deterministic — and cross-worker steals, which are
	// schedule-dependent diagnostics (and canonically 0 under STEERQ_VCLOCK).
	Items          uint64 `json:"items"`
	Steals         uint64 `json:"steals"`
	Oversubscribed bool   `json:"oversubscribed,omitempty"`
}

// perfScaling is the workers-1/2/4/8 sweep over a Zipf(s) hot-template
// workload — the skewed recurring-template traffic the production paper
// describes. Oversubscribed is true when any leg ran with more workers than
// cores; such sweeps are recorded but exempt from the -compare speedup gate.
type perfScaling struct {
	Workload       string           `json:"workload"`
	ZipfSkew       float64          `json:"zipf_skew"`
	Jobs           int              `json:"jobs"`
	Candidates     int              `json:"candidates"`
	Legs           []perfScalingLeg `json:"legs"`
	SpeedupAtMax   float64          `json:"speedup_at_max"`
	Oversubscribed bool             `json:"oversubscribed,omitempty"`
}

// perfCompile measures one default-configuration Cascades compile of a single
// job — the unit the tentpole optimizes. The pipeline numbers above multiply
// this by jobs x candidates.
type perfCompile struct {
	Job              string `json:"job"`
	NsPerCompile     int64  `json:"ns_per_compile"`
	AllocsPerCompile int64  `json:"allocs_per_compile"`
	BytesPerCompile  int64  `json:"bytes_per_compile"`
	Iterations       int    `json:"iterations"`
}

// perfCache reports compile-cache effectiveness over two warm passes.
type perfCache struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	Entries int     `json:"entries"`
	HitRate float64 `json:"hit_rate"`
	// Projected counts hits found through footprint projection — the probing
	// configuration differed from the writer's on rules the compile never
	// consulted.
	Projected     uint64  `json:"projected_hits"`
	ProjectedRate float64 `json:"projected_hit_rate"`
	Evictions     uint64  `json:"evictions"`
}

// perfFootprint reports how far footprint memoization collapsed the
// candidate stage on a cold cache: of Candidates generated configurations
// only Compiled went through the optimizer; the rest shared an equivalence
// class representative's outcome.
type perfFootprint struct {
	Candidates  int     `json:"candidates"`
	Classes     int     `json:"classes"`
	Compiled    int     `json:"compiled"`
	CacheSeeded int     `json:"cache_seeded"`
	Avoided     int     `json:"compiles_avoided"`
	AvoidedRate float64 `json:"avoided_rate"`
}

// perfReport is the full machine-readable benchmark record. Future PRs diff
// these files to track the perf trajectory.
type perfReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	NumCPU        int    `json:"num_cpu"`
	Workload      string `json:"workload"`
	// Op names what one timed op of the serial, parallel and scaling legs is.
	Op         string        `json:"op"`
	Jobs       int           `json:"jobs"`
	Candidates int           `json:"candidates"`
	Serial     perfConfig    `json:"serial"`
	Parallel   perfConfig    `json:"parallel"`
	Speedup    float64       `json:"speedup,omitempty"`
	Scaling    *perfScaling  `json:"scaling,omitempty"`
	Compile    perfCompile   `json:"compile"`
	Cache      perfCache     `json:"cache"`
	Footprint  perfFootprint `json:"footprint"`
	Obs        *obs.Snapshot `json:"obs,omitempty"`
}

// minParallelProcs is the floor for the parallel leg: measuring "parallel"
// speedup with fewer schedulable threads than workers is how PR 2 recorded a
// misleading 0.97x.
const minParallelProcs = 4

// benchOnce times a single invocation of f — the -perf-quick measurement
// unit. testing.Benchmark cannot take a -benchtime, so CI smoke runs use one
// timed iteration instead of a calibrated loop.
func benchOnce(f func() error) (int64, error) {
	// steerq:allow-wallclock — this IS the benchmark measurement; timings go
	// into the perf report, never into experiment output.
	start := time.Now() // steerq:allow-wallclock — see above.
	err := f()
	// steerq:allow-wallclock — see above.
	return time.Since(start).Nanoseconds(), err
}

// perfOp is the timed unit of every pipeline leg. One job's analysis is
// serial, so the legs time the level that fans out: a whole bundle build.
const perfOp = "Pipeline.BuildBundle over the job set: group, then analyze (recompile + execute) every group representative on `workers` workers, no cache"

// perfJobs caps the job set of the pipeline legs. BuildBundle analyzes one
// representative per job group, so the set must hold comfortably more groups
// than the widest leg has workers for the sweep to measure scaling.
const perfJobs = 32

// buildBundle is one timed op (see perfOp) on a fresh pipeline; reg, when
// non-nil, receives the build's metrics. The harness's worker count follows
// w as well, so the grouping step of a one-worker leg is serial too.
func buildBundle(h *abtest.Harness, seed uint64, stream string, m, w int, jobs []*workload.Job, reg *obs.Registry) error {
	h.Workers = w
	p := steering.NewPipeline(h, xrand.New(seed).Derive(stream))
	p.MaxCandidates = m
	p.Workers = w
	p.Obs = reg
	if _, _, err := p.BuildBundle(jobs, 1, 0); err != nil {
		return fmt.Errorf("perf: build bundle at workers=%d: %w", w, err)
	}
	return nil
}

// runPerf measures Pipeline.BuildBundle wall-clock at Workers=1 vs
// Workers=workers over a fixed job set (no cache, so the comparison is
// honest), plus a single-compile microbenchmark, compile-cache hit rates
// over repeated passes, and a workers-1/2/4/8 scaling sweep over a
// Zipf(zipf)-skewed hot-template workload, and writes the result as JSON to
// outPath. quick swaps every calibrated testing.Benchmark loop for one timed
// iteration (allocs unreported) so CI can smoke the whole report cheaply.
func runPerf(scale float64, seed uint64, m, workers int, zipf float64, quick bool, outPath, metricsOut string, verbose bool) error {
	if workers <= 0 {
		workers = 4
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.Candidates = m
	r := experiments.NewRunner(cfg)
	const wl = "A"
	long := r.LongJobs(wl, 0)
	if len(long) == 0 {
		return fmt.Errorf("perf: workload %s has no long-running jobs at scale %g", wl, scale)
	}
	jobs := long
	if len(jobs) > perfJobs {
		jobs = jobs[:perfJobs]
	}
	h := r.Harness(wl)

	// recompileAll is the untimed census pass: the candidate stage's
	// footprint collapse and the cache's hit rates, per job.
	recompileAll := func(cache *steering.CompileCache, stats *steering.FootprintStats) error {
		p := steering.NewPipeline(h, xrand.New(seed).Derive("perf"))
		p.MaxCandidates = m
		p.Cache = cache
		for _, j := range jobs {
			a, err := p.Recompile(j)
			if err != nil {
				return fmt.Errorf("perf: recompile %s: %w", j.ID, err)
			}
			if stats != nil {
				stats.Add(a.Footprint)
			}
		}
		return nil
	}
	// Warm up once so lazily built state (catalog statistics, day inputs)
	// does not land inside the first measured iteration; the recompile pass
	// doubles as the footprint-collapse census (cold cache).
	var fpStats steering.FootprintStats
	if err := recompileAll(nil, &fpStats); err != nil {
		return err
	}
	timed := func(w int) error { return buildBundle(h, seed, "perf", m, w, jobs, nil) }
	if err := timed(1); err != nil {
		return err
	}

	measure := func(w int) (perfConfig, error) {
		if quick {
			ns, err := benchOnce(func() error { return timed(w) })
			return perfConfig{
				Workers:    w,
				GoMaxProcs: runtime.GOMAXPROCS(0),
				NsPerOp:    ns,
				Iterations: 1,
				SecPerOp:   float64(ns) / 1e9,
			}, err
		}
		var err error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e := timed(w); e != nil && err == nil {
					err = e
				}
			}
		})
		return perfConfig{
			Workers:     w,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
			SecPerOp:    float64(res.NsPerOp()) / 1e9,
		}, err
	}

	serial, err := measure(1)
	if err != nil {
		return err
	}

	// Parallel leg: raise GOMAXPROCS to at least minParallelProcs so the
	// worker goroutines can actually run concurrently. A single-core
	// machine cannot produce a meaningful parallel measurement at all, so
	// the leg is skipped there with a logged warning rather than recorded
	// as a misleading ~1.0x — unless STEERQ_BENCH_FORCE_PARALLEL=1 asks for
	// an oversubscribed run anyway (downstream tooling that diffs reports
	// chokes on the all-zero fields a skip produces; an annotated
	// oversubscribed number is the lesser evil).
	force := os.Getenv("STEERQ_BENCH_FORCE_PARALLEL") == "1"
	var parallel perfConfig
	if runtime.NumCPU() < 2 && !force {
		note := fmt.Sprintf("skipped: single-core machine (NumCPU=1); parallel leg needs GOMAXPROCS >= %d schedulable cores; set STEERQ_BENCH_FORCE_PARALLEL=1 to run it oversubscribed", minParallelProcs)
		fmt.Fprintf(os.Stderr, "steerq-bench: warning: %s\n", note)
		parallel = perfConfig{
			Workers:    workers,
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Skipped:    true,
			Note:       note,
		}
	} else {
		prev := runtime.GOMAXPROCS(0)
		procs := prev
		if procs < minParallelProcs {
			procs = minParallelProcs
		}
		runtime.GOMAXPROCS(procs)
		parallel, err = measure(workers)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		if procs > runtime.NumCPU() {
			parallel.Oversubscribed = true
			parallel.Note = fmt.Sprintf("oversubscribed: GOMAXPROCS=%d > NumCPU=%d; speedup is not a scaling measurement", procs, runtime.NumCPU())
			if force && runtime.NumCPU() < 2 {
				parallel.Note += " (STEERQ_BENCH_FORCE_PARALLEL=1)"
			}
			fmt.Fprintf(os.Stderr, "steerq-bench: warning: parallel leg %s\n", parallel.Note)
		}
	}

	// Single-compile microbenchmark: one job, default (all-rules)
	// configuration, fresh memo per iteration.
	full := bitvec.AllSet(bitvec.Width)
	job := jobs[0]
	var compile perfCompile
	if quick {
		ns, err := benchOnce(func() error {
			_, e := h.Opt.Optimize(job.Root, full)
			return e
		})
		if err != nil {
			return fmt.Errorf("perf: compile %s: %w", job.ID, err)
		}
		compile = perfCompile{Job: job.ID, NsPerCompile: ns, Iterations: 1}
	} else {
		var compileErr error
		cres := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, e := h.Opt.Optimize(job.Root, full); e != nil && compileErr == nil {
					compileErr = e
				}
			}
		})
		if compileErr != nil {
			return fmt.Errorf("perf: compile %s: %w", job.ID, compileErr)
		}
		compile = perfCompile{
			Job:              job.ID,
			NsPerCompile:     cres.NsPerOp(),
			AllocsPerCompile: cres.AllocsPerOp(),
			BytesPerCompile:  cres.AllocedBytesPerOp(),
			Iterations:       cres.N,
		}
	}

	// Scaling sweep: workers 1/2/4/8 over the Zipf-skewed hot-template
	// workload, recording speedup and the scheduler's steal counter. zipf=0
	// is the uniform limit of the law (arrival weights untouched), so the
	// same sweep doubles as the uniform-traffic comparison; negative skew
	// disables the sweep entirely.
	var scaling *perfScaling
	if zipf >= 0 {
		var err error
		scaling, err = measureScaling(scale, seed, m, zipf, quick)
		if err != nil {
			return err
		}
	}

	// Cache effectiveness: two passes over the same jobs through one cache —
	// the steady state of recurring-workload experiments.
	cache := steering.NewCompileCache()
	for pass := 0; pass < 2; pass++ {
		if err := recompileAll(cache, nil); err != nil {
			return err
		}
	}
	st := cache.Stats()

	// Fold the run's observability snapshot into the report: compile counters
	// and memo-size histograms accumulated across every measured iteration.
	// The raw spans stay out of the report (one per trial of every timed
	// iteration — megabytes); -metrics-out writes the full snapshot.
	snap := r.Obs().Snapshot()
	metrics := snap
	metrics.Spans = nil

	rep := perfReport{
		// ClockFromEnv keeps -perf reports reproducible: under STEERQ_VCLOCK
		// the stamp is the frozen epoch (0), so CI can diff whole reports.
		GeneratedUnix: obs.ClockFromEnv()().Unix(),
		NumCPU:        runtime.NumCPU(),
		Workload:      wl,
		Op:            perfOp,
		Jobs:          len(jobs),
		Candidates:    m,
		Serial:        serial,
		Parallel:      parallel,
		Scaling:       scaling,
		Compile:       compile,
		Cache: perfCache{
			Hits:          st.Hits,
			Misses:        st.Misses,
			Entries:       st.Entries,
			HitRate:       st.HitRate(),
			Projected:     st.Projected,
			ProjectedRate: st.ProjectedRate(),
			Evictions:     st.Evictions,
		},
		Footprint: perfFootprint{
			Candidates:  fpStats.Candidates,
			Classes:     fpStats.Classes,
			Compiled:    fpStats.Compiled,
			CacheSeeded: fpStats.CacheSeeded,
			Avoided:     fpStats.Avoided,
		},
		Obs: &metrics,
	}
	if fpStats.Candidates > 0 {
		rep.Footprint.AvoidedRate = float64(fpStats.Avoided) / float64(fpStats.Candidates)
	}
	if !parallel.Skipped && parallel.NsPerOp > 0 {
		rep.Speedup = float64(serial.NsPerOp) / float64(parallel.NsPerOp)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("perf: %d jobs x %d candidates on %d CPU(s)\n", len(jobs), m, rep.NumCPU)
	fmt.Printf("  workers=1 (GOMAXPROCS=%d): %s/op  %d allocs/op  %d B/op\n",
		serial.GoMaxProcs, time.Duration(serial.NsPerOp), serial.AllocsPerOp, serial.BytesPerOp)
	if parallel.Skipped {
		fmt.Printf("  workers=%d: %s\n", workers, parallel.Note)
	} else {
		fmt.Printf("  workers=%d (GOMAXPROCS=%d): %s/op  %d allocs/op  (%.2fx speedup)\n",
			workers, parallel.GoMaxProcs, time.Duration(parallel.NsPerOp), parallel.AllocsPerOp, rep.Speedup)
	}
	if scaling != nil {
		fmt.Printf("  scaling (zipf s=%g, %d jobs):\n", scaling.ZipfSkew, scaling.Jobs)
		for _, leg := range scaling.Legs {
			tag := ""
			if leg.Oversubscribed {
				tag = "  [oversubscribed]"
			}
			fmt.Printf("    workers=%d: %s/op  %.2fx  %d groups  %d steals%s\n",
				leg.Workers, time.Duration(leg.NsPerOp), leg.Speedup, leg.Items, leg.Steals, tag)
		}
	}
	fmt.Printf("  compile %s: %s  %d allocs  %d B\n",
		compile.Job, time.Duration(compile.NsPerCompile), compile.AllocsPerCompile, compile.BytesPerCompile)
	fmt.Printf("  footprint: %d candidates -> %d classes, %d compiled (%.0f%% compiles avoided)\n",
		rep.Footprint.Candidates, rep.Footprint.Classes, rep.Footprint.Compiled, 100*rep.Footprint.AvoidedRate)
	fmt.Printf("  cache: %d hits / %d misses (%.0f%% hit rate, %.0f%% projected, %d entries, %d evictions)\n",
		st.Hits, st.Misses, 100*st.HitRate(), 100*st.ProjectedRate(), st.Entries, st.Evictions)
	fmt.Printf("  wrote %s\n", outPath)
	if metricsOut != "" {
		if err := snap.WriteFile(metricsOut); err != nil {
			return err
		}
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "%s", data)
	}
	return nil
}

// scalingWorkers is the sweep the scaling leg records; the last entry is the
// count the -compare speedup gate reads.
var scalingWorkers = []int{1, 2, 4, 8}

// measureScaling runs the cold-cache BuildBundle sweep over a Zipf(s)-skewed
// hot-template workload at each worker count in scalingWorkers. GOMAXPROCS is
// raised to the leg's worker count when the machine has fewer cores, and such
// legs (and the sweep) are marked oversubscribed so downstream gates can
// ignore their speedups. One instrumented pass per leg records the group
// fan-out's items/steals counters; items are deterministic, steals are
// schedule-dependent diagnostics.
func measureScaling(scale float64, seed uint64, m int, zipf float64, quick bool) (*perfScaling, error) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.Candidates = m
	cfg.ZipfSkew = zipf
	r := experiments.NewRunner(cfg)
	const wl = "A"
	jobs := r.LongJobs(wl, 0)
	if len(jobs) == 0 {
		return nil, fmt.Errorf("perf: zipf workload %s has no long-running jobs at scale %g", wl, scale)
	}
	if len(jobs) > perfJobs {
		jobs = jobs[:perfJobs]
	}
	h := r.Harness(wl)
	timed := func(w int, reg *obs.Registry) error { return buildBundle(h, seed, "scaling", m, w, jobs, reg) }
	// Warm-up, and the lazily built state (statistics, day inputs) census.
	if err := timed(1, nil); err != nil {
		return nil, err
	}

	sc := &perfScaling{Workload: wl, ZipfSkew: zipf, Jobs: len(jobs), Candidates: m}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, w := range scalingWorkers {
		procs := prev
		if w > procs {
			procs = w
		}
		runtime.GOMAXPROCS(procs)
		leg := perfScalingLeg{Workers: w, GoMaxProcs: procs, Oversubscribed: procs > runtime.NumCPU()}
		reg := obs.New()
		if quick {
			// The single timed iteration doubles as the stats pass.
			ns, err := benchOnce(func() error { return timed(w, reg) })
			if err != nil {
				return nil, err
			}
			leg.NsPerOp, leg.Iterations = ns, 1
		} else {
			var err error
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if e := timed(w, nil); e != nil && err == nil {
						err = e
					}
				}
			})
			if err != nil {
				return nil, err
			}
			leg.NsPerOp, leg.Iterations = res.NsPerOp(), res.N
			if err := timed(w, reg); err != nil {
				return nil, err
			}
		}
		leg.SecPerOp = float64(leg.NsPerOp) / 1e9
		for _, c := range reg.Snapshot().Counters {
			switch c.Name {
			case "steerq_par_items_total":
				leg.Items += c.Value
			case "steerq_par_steals_total":
				leg.Steals += c.Value
			}
		}
		if len(sc.Legs) > 0 && leg.NsPerOp > 0 {
			leg.Speedup = float64(sc.Legs[0].NsPerOp) / float64(leg.NsPerOp)
		} else if len(sc.Legs) == 0 {
			leg.Speedup = 1
		}
		if leg.Oversubscribed {
			sc.Oversubscribed = true
		}
		sc.Legs = append(sc.Legs, leg)
	}
	sc.SpeedupAtMax = sc.Legs[len(sc.Legs)-1].Speedup
	if sc.Oversubscribed {
		fmt.Fprintf(os.Stderr, "steerq-bench: warning: scaling sweep oversubscribed (NumCPU=%d); speedups recorded but not gate-worthy\n", runtime.NumCPU())
	}
	return sc, nil
}
