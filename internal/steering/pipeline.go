package steering

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/par"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// Candidate is one recompiled (not executed) rule configuration for a job.
type Candidate struct {
	Config    bitvec.Vector
	EstCost   float64
	Signature bitvec.Vector
}

// Analysis is the pipeline's per-job record.
type Analysis struct {
	Job *workload.Job

	// Default holds the compiled and executed default-configuration trial.
	Default abtest.Trial

	// Span is the job span found by Algorithm 1.
	Span bitvec.Vector

	// Candidates are the successfully recompiled candidate configurations
	// (compile failures are dropped — §4 expects them).
	Candidates []Candidate

	// Selected are the configurations chosen for execution (the cheapest
	// by estimated cost, deduplicated by signature).
	Selected []Candidate

	// Trials are the executions of Selected, aligned by index. Under fault
	// injection a trial whose configuration failed persistently is replaced
	// by a copy of Default with FellBack set.
	Trials []abtest.Trial

	// Robustness tallies the injected-fault handling this analysis needed:
	// retries, timeouts, corrupted compiles and fallbacks. Always zero when
	// injection is off. One analysis runs on one goroutine, so it accumulates
	// in candidate order at any worker count.
	Robustness faults.Record

	// Footprint reports how far footprint memoization collapsed the
	// candidate stage: of Candidates generated configurations, only
	// Compiled went through the optimizer; the rest resolved against an
	// equivalence class (Avoided), seeded either by a compile in this
	// analysis or by a compile-cache hit (CacheSeeded).
	Footprint FootprintStats

	// Sched counts the candidate stage's compiles in the shape the
	// benchmark's par.* columns read. The stage is a serial loop: Items is the
	// number of compiles it issued, Steals and Merges are always 0 and
	// MaxWorkers is always 1. Parallelism lives one level up, across job
	// groups (see BuildBundleCtx).
	Sched SchedStats
}

// SchedStats is the candidate stage's compile count, kept in its historical
// four-field shape for the benchmark module (and, through Add, for
// workload-level sums).
type SchedStats struct {
	// Items counts the compiles the candidate stage issued.
	Items int
	// Steals is always 0: the candidate stage no longer fans out.
	Steals uint64
	// Merges is always 0: there are no merge phases left.
	Merges int
	// MaxWorkers is always 1 for an analysis that ran.
	MaxWorkers int
}

// Add accumulates o into s (for workload-level reporting).
func (s *SchedStats) Add(o SchedStats) {
	s.Items += o.Items
	s.Steals += o.Steals
	s.Merges += o.Merges
	if o.MaxWorkers > s.MaxWorkers {
		s.MaxWorkers = o.MaxWorkers
	}
}

// FootprintStats summarizes the equivalence-class collapse of one candidate
// stage (see FootprintClasses).
type FootprintStats struct {
	// Candidates is the number of candidate configurations generated.
	Candidates int
	// Classes is the number of distinct equivalence classes discovered.
	Classes int
	// Compiled is the number of candidates actually sent through the
	// optimizer (including faulted attempts).
	Compiled int
	// CacheSeeded counts classes whose representative came from the
	// compile cache rather than a fresh compile.
	CacheSeeded int
	// Avoided counts candidates resolved without compiling: class or cache.
	Avoided int
}

// Add accumulates o into s (for workload-level reporting).
func (s *FootprintStats) Add(o FootprintStats) {
	s.Candidates += o.Candidates
	s.Classes += o.Classes
	s.Compiled += o.Compiled
	s.CacheSeeded += o.CacheSeeded
	s.Avoided += o.Avoided
}

// Pipeline is the offline discovery pipeline of §5–6: span computation,
// randomized candidate search, recompilation, heuristic selection and
// selective A/B execution. Fault tolerance — injection and its fixed retry
// budget — is configured on the Harness and honored at every compile and
// execution site here.
type Pipeline struct {
	Harness *abtest.Harness
	Rand    *xrand.Source

	// MaxCandidates is M, the number of candidate configurations to
	// recompile per job (the paper uses up to 1000).
	MaxCandidates int

	// ExecutePerJob is how many recompiled candidates are executed (the
	// paper executes the 10 cheapest).
	ExecutePerJob int

	// Workers bounds the goroutines BuildBundle analyzes job groups on (one
	// analysis is serial). Zero resolves through STEERQ_WORKERS and then
	// GOMAXPROCS (see internal/par); any value yields a byte-identical
	// bundle — results are slotted by group index, each job draws from its
	// own derived RNG stream, and fault decisions are keyed by content, not
	// schedule.
	Workers int

	// Cache, when non-nil, memoizes every compile outcome — BuildBundle's
	// grouping, span probes, candidates, and the plans of executed trials —
	// per (job fingerprint, config), so recurring jobs skip identical
	// recompilations. Safe to share across goroutines and across pipelines of
	// one workload. Faulted compilations — injected failures, timeouts,
	// corrupted plans — are never cached; only validated successes and
	// genuine no-plan outcomes are.
	Cache *CompileCache

	// Obs, when non-nil, records per-stage spans (pipeline.recompile,
	// pipeline.span_search, pipeline.execute — tagged by job ID, never by
	// schedule) and candidate/trial outcome counters, and mirrors each
	// analysis's faults.Record into robustness counters. All recorded
	// state is commutative or content-keyed, so snapshots stay bit-identical
	// at any Workers value.
	Obs *obs.Registry
}

// NewPipeline returns a pipeline with the paper's parameters (M=1000, 10
// executions per job).
func NewPipeline(h *abtest.Harness, r *xrand.Source) *Pipeline {
	return &Pipeline{Harness: h, Rand: r, MaxCandidates: 1000, ExecutePerJob: 10}
}

// AnalyzeCtx runs the full pipeline for one job: default execution, span,
// candidate generation, recompilation, selection of the cheapest plans and
// their execution. Cancellation surfaces as the returned error once in-flight
// compile attempts notice it.
//
// Both halves compile through one optimizer session, so a selected trial
// finds the explored memo and every group state — root included — that its
// candidate's compile left, and only extracts the plan.
func (p *Pipeline) AnalyzeCtx(ctx context.Context, job *workload.Job) (*Analysis, error) {
	sess := p.Harness.Opt.NewSession(job.Root)
	defer sess.Close()
	a, err := p.recompile(ctx, sess, job)
	if err != nil {
		return nil, err
	}
	p.execute(ctx, sess, a)
	return a, nil
}

// Recompile runs the cheap half of the pipeline — everything except
// executing the alternatives: the default trial, the span, and the M
// recompiled candidates. Figure 4 is produced from this stage alone.
func (p *Pipeline) Recompile(job *workload.Job) (*Analysis, error) {
	return p.RecompileCtx(context.Background(), job)
}

// RecompileCtx is Recompile bounded by a context, on an optimizer session of
// its own.
func (p *Pipeline) RecompileCtx(ctx context.Context, job *workload.Job) (*Analysis, error) {
	sess := p.Harness.Opt.NewSession(job.Root)
	defer sess.Close()
	return p.recompile(ctx, sess, job)
}

// recompile is the cheap half of an analysis through sess: the default
// trial, span probes and candidates differ mostly in implementation bits, so
// they share explored memos and group states.
func (p *Pipeline) recompile(ctx context.Context, sess *cascades.Session, job *workload.Job) (a *Analysis, err error) {
	ctx, sp := p.Obs.StartSpan(ctx, "pipeline.recompile", job.ID)
	defer func() {
		sp.EndErr(err)
		if a != nil {
			mirrorRobustness(p.Obs, a.Robustness)
		}
	}()
	h := p.Harness
	a = &Analysis{Job: job}
	def := p.trial(ctx, sess, job, h.Opt.Rules.DefaultConfig(), job.ID+"/default", &a.Robustness)
	if def.Err != nil {
		return nil, fmt.Errorf("steering: default compile of %s: %w", job.ID, def.Err)
	}
	a.Default = def
	// Span probing is serial, so a plain counter gives each probe a stable
	// tag independent of worker count.
	probe := 0
	_, spanSp := p.Obs.StartSpan(ctx, "pipeline.span_search", job.ID)
	span, err := JobSpanFunc(h.Opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
		n := probe
		probe++
		v, _, _, cerr := p.compile(ctx, sess, job, cfg, func() string { return fmt.Sprintf("%s/span%d", job.ID, n) }, &a.Robustness, false)
		if cerr != nil {
			return bitvec.Vector{}, cerr
		}
		return v.Signature, nil
	})
	spanSp.EndErr(err)
	if err != nil {
		return nil, fmt.Errorf("steering: span of %s: %w", job.ID, err)
	}
	a.Span = span
	r := p.Rand.Derive("job", job.ID)
	cfgs := CandidateConfigs(span, h.Opt.Rules, p.MaxCandidates, r)
	p.resolveCandidates(ctx, job, cfgs, a, sess)
	p.Obs.Counter("steerq_pipeline_footprint_classes_total").Add(uint64(a.Footprint.Classes))
	p.Obs.Counter("steerq_pipeline_compiles_avoided_total").Add(uint64(a.Footprint.Avoided))
	return a, nil
}

// AnalyzeEachCtx is the job-level fan-out BuildBundle runs over its group
// representatives: it analyzes every job on up to Workers scheduler workers
// — one analysis serial on its worker — and hands each outcome to visit on
// the goroutine that produced it, so visit may only touch state slotted by i.
// It returns the lowest-index error; once ctx is done unstarted jobs are
// skipped (never visited) and count as failing with ctx.Err().
func (p *Pipeline) AnalyzeEachCtx(ctx context.Context, jobs []*workload.Job, visit func(i int, a *Analysis, err error)) error {
	return par.Run(ctx, p.Workers, len(jobs), func(_, i int) error {
		a, err := p.AnalyzeCtx(ctx, jobs[i])
		visit(i, a, err)
		return err
	})
}

// resolveCandidates resolves every candidate configuration to a compile
// outcome in one serial in-order loop, compiling only one representative per
// footprint equivalence class (see FootprintClasses): a candidate agreeing
// with a discovered class on that class's footprint bits takes its outcome,
// one the compile cache knows seeds a class from the cached value, and only
// the rest go through the optimizer — each fresh outcome is admitted as a
// class and written to the cache before the next candidate is looked at, so
// no compile is ever wasted on a configuration an earlier one decides.
// Agreement on footprint bits implies a byte-identical compile, so
// a.Candidates is exactly what compiling every configuration would give.
//
// Successes append to a.Candidates in candidate order (no-plan verdicts and
// faulted compiles are dropped — §4 expects them). Candidate outcomes are
// counters, not spans: M can be 1000, and an atomic add per candidate keeps
// the volume O(1) in memory.
func (p *Pipeline) resolveCandidates(ctx context.Context, job *workload.Job, cfgs []bitvec.Vector, a *Analysis, sess *cascades.Session) {
	a.Footprint.Candidates = len(cfgs)
	compiled := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "compiled")
	noplan := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "noplan")
	faulted := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "faulted")
	var classes FootprintClasses
	a.Candidates = make([]Candidate, 0, len(cfgs))
	for i, cfg := range cfgs {
		v, ok := classes.Lookup(cfg)
		if ok {
			a.Footprint.Avoided++
		} else {
			var hit bool
			var err error
			v, _, hit, err = p.compile(ctx, sess, job, cfg, func() string { return fmt.Sprintf("%s/cand%d", job.ID, i) }, &a.Robustness, false)
			if hit {
				a.Footprint.Avoided++
			} else {
				a.Footprint.Compiled++
			}
			if err != nil && !errors.Is(err, cascades.ErrNoPlan) {
				// Faulted compile: no footprint to trust, nothing shared.
				faulted.Inc()
				continue
			}
			if classes.Admit(cfg, v) {
				a.Footprint.Classes++
				if hit {
					a.Footprint.CacheSeeded++
				}
			}
		}
		if !v.OK {
			noplan.Inc()
			continue
		}
		compiled.Inc()
		a.Candidates = append(a.Candidates, Candidate{Config: cfg, EstCost: v.Cost, Signature: v.Signature})
	}
	a.Sched = SchedStats{Items: a.Footprint.Compiled, MaxWorkers: 1}
}

// compile is every compile of an analysis: job under cfg through the cache
// (CompileCache.compile) and, on a miss, through sess under the harness's
// retry loop. A trial's compile keeps its plan in the cache and is recorded
// as the trial's abtest.compile span; span probes and candidates keep the
// costed verdict only. attempts is 1 on a cache hit: a kept outcome stands
// for the one clean compile that wrote it. tag names the compile for fault
// decisions; it is formatted only on a miss, since a warm pass probes the
// cache far more often than it compiles.
func (p *Pipeline) compile(ctx context.Context, sess *cascades.Session, job *workload.Job, cfg bitvec.Vector, tag func() string, rec *faults.Record, trial bool) (v CompileValue, attempts int, hit bool, err error) {
	retry := p.Harness.RetryCompile
	if trial {
		retry = p.Harness.CompileCtx
	}
	attempts = 1
	v, hit, err = p.Cache.compile(job, cfg, trial, func() (*cascades.Result, error) {
		res, n, rerr := retry(ctx, tag(), rec, func(plan bool) (*cascades.Result, error) {
			return sess.Optimize(cfg, plan || trial)
		})
		attempts = n
		return res, rerr
	})
	return v, attempts, hit, err
}

// trial is Harness.RunConfigCtx through the analysis's compile path: the
// plan an earlier trial of cfg's footprint class left in the cache is
// executed as is, and a plan compiled here is left for the next trial — a
// re-analysis of a recurring job executes everything and compiles nothing.
func (p *Pipeline) trial(ctx context.Context, sess *cascades.Session, job *workload.Job, cfg bitvec.Vector, tag string, rec *faults.Record) abtest.Trial {
	v, attempts, _, err := p.compile(ctx, sess, job, cfg, func() string { return tag }, rec, true)
	if err != nil {
		return abtest.Trial{Config: cfg, Err: err, Attempts: attempts}
	}
	res := &cascades.Result{Plan: v.Plan, Cost: v.Cost, Signature: v.Signature, Footprint: v.Footprint, Config: cfg}
	t := p.Harness.ExecCtx(ctx, res, job.Day, tag, rec)
	t.Attempts += attempts
	return t
}

// Execute selects the cheapest recompiled candidates (deduplicated by rule
// signature, so the executed set spans distinct plans) and runs them through
// the A/B harness.
func (p *Pipeline) Execute(a *Analysis) {
	p.ExecuteCtx(context.Background(), a)
}

// ExecuteCtx is Execute bounded by a context, on an optimizer session of its
// own. Under fault injection, a selected trial that still fails after the
// retry budget degrades gracefully: the pipeline falls back to the
// already-executed default trial (marked FellBack) and counts the fallback in
// a.Robustness — the steered job runs, just without its steering. Executing
// an analysis again replaces its Selected and Trials.
func (p *Pipeline) ExecuteCtx(ctx context.Context, a *Analysis) {
	sess := p.Harness.Opt.NewSession(a.Job.Root)
	defer sess.Close()
	p.execute(ctx, sess, a)
}

func (p *Pipeline) execute(ctx context.Context, sess *cascades.Session, a *Analysis) {
	ctx, sp := p.Obs.StartSpan(ctx, "pipeline.execute", a.Job.ID)
	before := a.Robustness
	defer func() {
		sp.End(obs.OutcomeOK)
		mirrorRobustness(p.Obs, recordDelta(a.Robustness, before))
	}()
	a.Selected, a.Trials = nil, nil
	cands := append([]Candidate(nil), a.Candidates...)
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].EstCost < cands[j].EstCost })
	seen := map[bitvec.Key]bool{a.Default.Signature.Key(): true}
	for _, c := range cands {
		if len(a.Selected) >= p.ExecutePerJob {
			break
		}
		k := c.Signature.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		a.Selected = append(a.Selected, c)
	}
	for i, c := range a.Selected {
		t := p.trial(ctx, sess, a.Job, c.Config, fmt.Sprintf("%s/alt%d", a.Job.ID, i), &a.Robustness)
		if t.Err != nil && p.Harness.Faults.Active() {
			fb := a.Default
			fb.Attempts, fb.FellBack = t.Attempts, true
			a.Robustness.Fallbacks++
			t = fb
		}
		p.Obs.Counter("steerq_pipeline_trials_total", "outcome", trialOutcome(t.Err, t.FellBack)).Inc()
		a.Trials = append(a.Trials, t)
	}
}

// Metric selects which §3.1.2 metric a comparison optimizes.
type Metric int

// Metrics of interest (§3.1.2).
const (
	MetricRuntime Metric = iota
	MetricCPU
	MetricIO
)

var metricNames = [...]string{"runtime", "cpu-time", "io-time"}

func (m Metric) String() string { return metricNames[m] }

// value extracts the metric from a trial.
func (m Metric) value(t *abtest.Trial) float64 {
	switch m {
	case MetricCPU:
		return t.Metrics.CPUSec
	case MetricIO:
		return t.Metrics.IOTimeSec
	}
	return t.Metrics.RuntimeSec
}

// BestAlternative returns the executed trial with the lowest value of the
// metric, or nil when nothing was executed. Fallback trials are skipped:
// they duplicate the default and must not masquerade as an improvement.
func (a *Analysis) BestAlternative(m Metric) *abtest.Trial {
	var best *abtest.Trial
	for i := range a.Trials {
		t := &a.Trials[i]
		if t.Err != nil || t.FellBack {
			continue
		}
		if best == nil || m.value(t) < m.value(best) {
			best = t
		}
	}
	return best
}

// BestConfig returns the trial (including the default) with the lowest value
// of the metric: "always choose the best known rule configuration" (Table 3
// includes the default, since some jobs improve under none of the
// alternatives).
func (a *Analysis) BestConfig(m Metric) *abtest.Trial {
	best := &a.Default
	if alt := a.BestAlternative(m); alt != nil && m.value(alt) < m.value(best) {
		best = alt
	}
	return best
}

// PercentChange returns the percentage change of the trial's metric from the
// default (negative is an improvement; bounded below by -100%, unbounded
// above, exactly as Figure 6 notes).
func (a *Analysis) PercentChange(t *abtest.Trial, m Metric) float64 {
	d := m.value(&a.Default)
	if d == 0 {
		return 0
	}
	return 100 * (m.value(t) - d) / d
}

// LowCostHighRuntime reports whether the job sits in Figure 5's top-left
// corner: the optimizer expected it to be fast (estimated cost below
// costCeil) but it ran long (runtime above runtimeFloor seconds) — heuristic
// (2) of §6.1.
func (a *Analysis) LowCostHighRuntime(costCeil, runtimeFloor float64) bool {
	return a.Default.EstCost < costCeil && a.Default.Metrics.RuntimeSec > runtimeFloor
}
