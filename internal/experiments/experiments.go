// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated stack. Each experiment returns a structured
// result with a Render method that prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Absolute numbers differ from the paper (the substrate is a simulator at
// 1:100 scale, not Cosmos clusters); the reproduction targets are the
// *shapes*: who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// Config parameterizes a full experiment run.
type Config struct {
	// Seed roots all randomness.
	Seed uint64
	// Scale multiplies the paper's workload sizes (default 0.01 = 1:100).
	Scale float64
	// Candidates is M, the recompiled configurations per analyzed job
	// (the paper uses up to 1000; the default here is 300).
	Candidates int
	// ExecutePerJob is the number of alternatives executed per selected
	// job (10 in the paper).
	ExecutePerJob int
	// SampleFrac is the fraction of long-running jobs the pipeline
	// analyzes (the paper samples 10-20%).
	SampleFrac float64
	// LongJobFloor/LongJobCeil bound "long-running" in seconds (the paper
	// filters to five minutes..one hour, §5.3).
	LongJobFloor, LongJobCeil float64
	// LearnMinGroup and LearnMinMedianSec gate which rule-signature job
	// groups the learning experiment (§7) trains on: a group needs enough
	// members for a 40/20/40 split and jobs long enough to be worth
	// optimizing.
	LearnMinGroup     int
	LearnMinMedianSec float64
	// Workers bounds the goroutines jobs are analyzed on (one analysis is
	// serial) and, as every harness's Workers, the goroutines grouping
	// compiles jobs on. Zero resolves through STEERQ_WORKERS and then
	// GOMAXPROCS; every value produces bit-for-bit identical results.
	Workers int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Faults, when non-nil, arms deterministic fault injection on every
	// harness the runner builds: compiles and executions fail, hang or
	// return corrupted plans at the plan's probabilities, and the pipeline
	// retries, times out and falls back per the robustness machinery. The
	// same plan (same seed) reproduces the same faults at any Workers
	// value.
	Faults *faults.Plan
	// Obs, when non-nil, is the registry the runner wires through every
	// harness, optimizer, pipeline and cache it builds. Nil means the
	// runner builds its own on obs.ClockFromEnv (so STEERQ_VCLOCK freezes
	// span durations for byte-stable snapshots).
	Obs *obs.Registry
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              2021,
		Scale:             0.01,
		Candidates:        300,
		ExecutePerJob:     10,
		SampleFrac:        0.15,
		LongJobFloor:      300,
		LongJobCeil:       3600,
		LearnMinGroup:     30,
		LearnMinMedianSec: 60,
	}
}

// Runner caches workloads, harnesses and executed days across experiments so
// a full suite reuses work.
type Runner struct {
	Cfg Config

	workloads map[string]*workload.Workload
	harnesses map[string]*abtest.Harness
	days      map[string]map[int][]*workload.Job
	defaults  map[string]map[string]abtest.Trial // per workload: jobID -> default trial
	analyses  map[string]map[string]*steering.Analysis
	failed    map[string]map[string]bool        // per workload: jobID -> analysis gave up
	caches    map[string]*steering.CompileCache // per workload, shared by all its pipelines
	robust    map[string]*faults.Record         // per workload: fault-handling tallies
	injector  *faults.Injector                  // shared by every harness; nil when Cfg.Faults is nil
	armed     bool                              // injector has been built (it may legitimately be nil)
	obs       *obs.Registry                     // shared registry; built lazily by Obs()
}

// NewRunner builds a Runner for the configuration; start it from
// DefaultConfig.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		Cfg:       cfg,
		workloads: make(map[string]*workload.Workload),
		harnesses: make(map[string]*abtest.Harness),
		days:      make(map[string]map[int][]*workload.Job),
		defaults:  make(map[string]map[string]abtest.Trial),
		analyses:  make(map[string]map[string]*steering.Analysis),
		failed:    make(map[string]map[string]bool),
		caches:    make(map[string]*steering.CompileCache),
		robust:    make(map[string]*faults.Record),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Cfg.Log != nil {
		fmt.Fprintf(r.Cfg.Log, format+"\n", args...)
	}
}

// Workload returns (building once) the named workload.
func (r *Runner) Workload(name string) *workload.Workload {
	if w, ok := r.workloads[name]; ok {
		return w
	}
	var p workload.Profile
	switch name {
	case "A":
		p = workload.ProfileA(r.Cfg.Scale, r.Cfg.Seed)
	case "B":
		p = workload.ProfileB(r.Cfg.Scale, r.Cfg.Seed)
	case "C":
		p = workload.ProfileC(r.Cfg.Scale, r.Cfg.Seed)
	default:
		// steerq:allow-panic — workload names come from the experiment table, not user input.
		panic("experiments: unknown workload " + name)
	}
	w := workload.Generate(p)
	r.workloads[name] = w
	return w
}

// Harness returns the A/B harness for a workload. With STEERQ_CHECK_PLANS
// set in the environment, every plan the experiments execute is first run
// through cascades.Validate (see exec.New).
func (r *Runner) Harness(name string) *abtest.Harness {
	if h, ok := r.harnesses[name]; ok {
		return h
	}
	w := r.Workload(name)
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	opt.SetObs(r.Obs())
	h := abtest.New(w.Cat, opt, r.Cfg.Seed+1)
	h.Workers = r.Cfg.Workers
	h.SetObs(r.Obs())
	if in := r.Faults(); in != nil {
		h.SetFaults(in)
	}
	r.harnesses[name] = h
	return h
}

// Obs returns the runner's shared observability registry, building it on
// first use from Cfg.Obs (or a fresh registry on obs.ClockFromEnv). Every
// harness, optimizer, pipeline, cache and injector the runner builds
// reports into it.
func (r *Runner) Obs() *obs.Registry {
	if r.obs == nil {
		if r.Cfg.Obs != nil {
			r.obs = r.Cfg.Obs
		} else {
			r.obs = obs.NewWithClock(obs.ClockFromEnv())
		}
	}
	return r.obs
}

// Faults returns the runner's shared fault injector, building it on first
// use from Cfg.Faults; nil when injection is off. One injector serves every
// workload so its decision counters cover the whole run.
func (r *Runner) Faults() *faults.Injector {
	if !r.armed {
		if r.Cfg.Faults != nil {
			r.injector = faults.NewInjector(*r.Cfg.Faults)
			r.injector.Publish(r.Obs())
		}
		r.armed = true
	}
	return r.injector
}

// Robustness returns the workload's fault-handling tally, accumulated
// serially by DefaultTrial and AnalyzedJobs. It is all zeros when injection
// is off.
func (r *Runner) Robustness(name string) *faults.Record {
	rec, ok := r.robust[name]
	if !ok {
		rec = &faults.Record{}
		r.robust[name] = rec
	}
	return rec
}

// Day returns (generating once) the jobs of one day.
func (r *Runner) Day(name string, day int) []*workload.Job {
	if r.days[name] == nil {
		r.days[name] = make(map[int][]*workload.Job)
	}
	if jobs, ok := r.days[name][day]; ok {
		return jobs
	}
	jobs := r.Workload(name).Day(day)
	r.days[name][day] = jobs
	return jobs
}

// DefaultTrial runs a job under the default configuration through the
// workload's pipeline (Pipeline.Trial), memoized per job ID; the plan it
// compiles stays in the workload's cache for the job's analysis.
func (r *Runner) DefaultTrial(name string, j *workload.Job) abtest.Trial {
	if r.defaults[name] == nil {
		r.defaults[name] = make(map[string]abtest.Trial)
	}
	if t, ok := r.defaults[name][j.ID]; ok {
		return t
	}
	p := r.Pipeline(name)
	t := p.Trial(context.Background(), j, p.Harness.Opt.Rules.DefaultConfig(), steering.DefaultTag(j.ID), r.Robustness(name))
	r.defaults[name][j.ID] = t
	return t
}

// Pipeline returns a configured discovery pipeline for a workload. All
// pipelines of one workload share a compile cache, so recurring jobs and
// repeated experiments (Figure 1, extensions) skip identical recompilations.
func (r *Runner) Pipeline(name string) *steering.Pipeline {
	p := steering.NewPipeline(r.Harness(name), xrand.New(r.Cfg.Seed).Derive("pipeline", name))
	p.MaxCandidates = r.Cfg.Candidates
	p.ExecutePerJob = r.Cfg.ExecutePerJob
	p.Workers = r.Cfg.Workers
	p.Cache = r.Cache(name)
	p.Obs = r.Obs()
	return p
}

// Cache returns (building once) the workload's shared compile cache.
func (r *Runner) Cache(name string) *steering.CompileCache {
	if c, ok := r.caches[name]; ok {
		return c
	}
	c := steering.NewCompileCache()
	c.SetObs(r.Obs(), "workload", name)
	r.caches[name] = c
	return c
}

// CacheStats snapshots the workload's compile-cache counters.
func (r *Runner) CacheStats(name string) steering.CacheStats {
	return r.caches[name].Stats()
}

// LongJobs returns day-0 jobs whose default runtime falls inside the
// long-running window, with their default trials.
func (r *Runner) LongJobs(name string, day int) []*workload.Job {
	var out []*workload.Job
	for _, j := range r.Day(name, day) {
		t := r.DefaultTrial(name, j)
		if t.Err != nil {
			continue
		}
		rt := t.Metrics.RuntimeSec
		if rt >= r.Cfg.LongJobFloor && rt <= r.Cfg.LongJobCeil {
			out = append(out, j)
		}
	}
	return out
}

// AnalyzedJobs runs (and caches) the discovery pipeline over a sample of a
// day's long-running jobs — the shared substrate of Table 3/4 and Figures
// 6/7.
func (r *Runner) AnalyzedJobs(name string, day int) []*steering.Analysis {
	if r.analyses[name] == nil {
		r.analyses[name] = make(map[string]*steering.Analysis)
		r.failed[name] = make(map[string]bool)
	}
	long := r.LongJobs(name, day)
	rnd := xrand.New(r.Cfg.Seed).Derive("select", name, fmt.Sprint(day))
	n := int(float64(len(long)) * r.Cfg.SampleFrac)
	if n < 24 {
		n = min(24, len(long))
	}
	idx := rnd.Sample(len(long), n)
	sort.Ints(idx)
	p := r.Pipeline(name)
	jobs := pick(long, idx)
	// Analyze the jobs neither cached nor given up on through the pipeline's
	// fan-out, todo[i] into slot at[i]; the analysis cache is only read
	// before it and only written in the serial merge below, so results,
	// cache contents and log order all match a Workers=1 run.
	var todo []*workload.Job
	var at []int
	for k, j := range jobs {
		if _, ok := r.analyses[name][j.ID]; !ok && !r.failed[name][j.ID] {
			todo, at = append(todo, j), append(at, k)
		}
	}
	fresh := make([]*steering.Analysis, len(jobs))
	errs := make([]error, len(jobs))
	_ = p.AnalyzeEachCtx(context.Background(), todo, func(i int, a *steering.Analysis, err error) {
		fresh[at[i]], errs[at[i]] = a, err
	})
	rec := r.Robustness(name)
	out := make([]*steering.Analysis, 0, len(jobs))
	for k, j := range jobs {
		if a, ok := r.analyses[name][j.ID]; ok {
			out = append(out, a)
			continue
		}
		if r.failed[name][j.ID] {
			continue
		}
		a, err := fresh[k], errs[k]
		if err != nil {
			// The job's analysis exhausted every retry even for the default
			// configuration; there is nothing to fall back to, so the
			// pipeline gives the job up (already logged and counted once).
			r.failed[name][j.ID] = true
			rec.GiveUps++
			r.logf("analyze %s: %v", j.ID, err)
			continue
		}
		r.analyses[name][j.ID] = a
		rec.Add(a.Robustness)
		out = append(out, a)
		if rb := a.Robustness; rb.IsZero() {
			r.logf("analyzed %s: span=%d candidates=%d", j.ID, a.Span.Count(), len(a.Candidates))
		} else {
			r.logf("analyzed %s: span=%d candidates=%d retries=%d timeouts=%d corruptions=%d fallbacks=%d",
				j.ID, a.Span.Count(), len(a.Candidates), rb.Retries(), rb.Timeouts, rb.Corruptions, rb.Fallbacks)
		}
	}
	return out
}

// pick returns jobs[i] for each i of idx, in idx order.
func pick(jobs []*workload.Job, idx []int) []*workload.Job {
	out := make([]*workload.Job, len(idx))
	for k, i := range idx {
		out[k] = jobs[i]
	}
	return out
}

// UniqueSignatures counts distinct default rule signatures over jobs.
func (r *Runner) UniqueSignatures(name string, jobs []*workload.Job) (int, error) {
	groups, err := r.Pipeline(name).Grouper().Group(jobs)
	if err != nil {
		return 0, err
	}
	return len(groups), nil
}

// Histogram is a generic bucketed count used by the figure renderers.
type Histogram struct {
	Label  string
	Edges  []float64 // len = buckets+1
	Counts []int
	Total  int
}

// NewHistogram buckets values into the given edges.
func NewHistogram(label string, edges []float64, values []float64) Histogram {
	h := Histogram{Label: label, Edges: edges, Counts: make([]int, len(edges)-1)}
	for _, v := range values {
		for b := 0; b < len(edges)-1; b++ {
			if v >= edges[b] && (v < edges[b+1] || b == len(edges)-2) {
				h.Counts[b]++
				break
			}
		}
		h.Total++
	}
	return h
}

// Render prints the histogram as rows with ASCII bars.
func (h Histogram) Render(w io.Writer) {
	maxN := 1
	for _, c := range h.Counts {
		if c > maxN {
			maxN = c
		}
	}
	for b := 0; b < len(h.Counts); b++ {
		bar := barString(h.Counts[b], maxN, 40)
		fmt.Fprintf(w, "  [%10.4g, %10.4g) %6d %s\n", h.Edges[b], h.Edges[b+1], h.Counts[b], bar)
	}
}

func barString(n, maxN, width int) string {
	if maxN <= 0 {
		return ""
	}
	k := n * width / maxN
	out := make([]byte, k)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
