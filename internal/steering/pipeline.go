package steering

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"

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
	// (compile failures are dropped — §4 expects them), in candidate order.
	// The slice may be the one the compile cache keeps for the job's
	// candidate list, shared by every analysis that reads it: read it only.
	// Its capacity equals its length, so appending to it copies.
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
	// Compiled went through the optimizer; the rest hit an outcome the
	// compile cache holds for their footprint class (Avoided).
	Footprint FootprintStats

	// Sched counts the candidate stage's compiles in the shape the
	// benchmark's par.* columns read. The stage is a serial loop: Items is the
	// number of compiles it issued, Steals and Merges are always 0 and
	// MaxWorkers is always 1. Parallelism lives one level up, across job
	// groups (see BuildBundleCtx).
	Sched SchedStats

	// res is the resolution Candidates came from; selection walks its cost
	// order.
	res *resolution
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
// stage (see resolveCandidates).
type FootprintStats struct {
	// Candidates is the number of candidate configurations generated.
	Candidates int
	// Compiled is the number of candidates actually sent through the
	// optimizer (including faulted attempts).
	Compiled int
	// Avoided counts candidates resolved without compiling: cache hits.
	Avoided int
}

// Add accumulates o into s (for workload-level reporting).
func (s *FootprintStats) Add(o FootprintStats) {
	s.Candidates += o.Candidates
	s.Compiled += o.Compiled
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

	// Workers bounds the goroutines AnalyzeEachCtx analyzes jobs on (one
	// analysis is serial). Zero resolves through STEERQ_WORKERS and then
	// GOMAXPROCS (see internal/par); any value yields a byte-identical
	// bundle — results are slotted by group index, each job draws from its
	// own derived RNG stream, and fault decisions are keyed by content, not
	// schedule.
	Workers int

	// Cache, when non-nil, memoizes every compile outcome — the default
	// signatures of its Grouper, span probes, candidates, and the plans of
	// executed trials — per (job fingerprint, config), so recurring jobs
	// skip identical recompilations, and each analysed job's candidate
	// configurations per (job fingerprint, the seed of its Rand-derived
	// stream, MaxCandidates, span), so a re-analysis samples nothing either.
	// Safe to share across goroutines and across pipelines of one workload.
	// Faulted compilations — injected failures, timeouts, corrupted plans —
	// are never cached; only validated successes and genuine no-plan outcomes
	// are.
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

// DefaultTag is the exec noise tag of a job's default run. The pipeline's
// default trial, Extrapolate's baseline and `steerq explain` all execute a
// job's default plan under it, so a job has one default runtime.
func DefaultTag(jobID string) string { return jobID + "/default" }

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
	def := p.trial(ctx, sess, job, h.Opt.Rules.DefaultConfig(), DefaultTag(job.ID), &a.Robustness)
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
		v, _, _, cerr := p.compile(ctx, sess, job, cfg, compileTag{kind: "span", n: n}, &a.Robustness, false)
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
	l, kept := p.Cache.candidates(job, span, h.Opt.Rules, p.MaxCandidates, r)
	p.resolveCandidates(ctx, job, l, kept, a, sess)
	p.Obs.Counter("steerq_pipeline_compiles_avoided_total").Add(uint64(a.Footprint.Avoided))
	return a, nil
}

// AnalyzeEachCtx is the one job-level fan-out, which BuildBundle runs over
// its group representatives and the experiments over their sampled jobs: it
// analyzes every job on up to Workers scheduler workers
// — one analysis serial on its worker — and hands each outcome to visit on
// the goroutine that produced it, so visit may only touch state slotted by i.
// It returns the lowest-index error; once ctx is done unstarted jobs are
// skipped (never visited) and count as failing with ctx.Err().
func (p *Pipeline) AnalyzeEachCtx(ctx context.Context, jobs []*workload.Job, visit func(i int, a *Analysis, err error)) error {
	return par.Run(ctx, p.Workers, len(jobs), func(i int) error {
		a, err := p.AnalyzeCtx(ctx, jobs[i])
		visit(i, a, err)
		return err
	})
}

// resolveCandidates resolves every candidate configuration of l to a compile
// outcome in one serial in-order loop through the analysis's compile path.
// The compile cache indexes a job's outcomes by footprint, so only one
// representative per footprint equivalence class goes through the optimizer:
// each fresh outcome is written back before the next candidate is looked at,
// and every later candidate agreeing with it on its footprint bits hits. No
// compile is wasted on a configuration an earlier one decides. Agreement on
// footprint bits implies a byte-identical compile, so a.Candidates is exactly
// what compiling every configuration would give. Without a cache every
// candidate compiles on sess.
//
// Successes append to a.Candidates in candidate order (no-plan verdicts and
// faulted compiles are dropped — §4 expects them). Candidate outcomes are
// counters, not spans: M can be 1000, and an atomic add per candidate keeps
// the volume O(1) in memory.
//
// A loop over a list the cache keeps (kept) that met no faulted or canceled
// compile leaves its resolution on the list. Every later analysis of the
// list would hit the cache on every candidate, so it reads that resolution
// instead — no probe, no loop — and adds to the cache's hits and the
// candidate counters exactly what the probes would have.
func (p *Pipeline) resolveCandidates(ctx context.Context, job *workload.Job, l *candList, kept bool, a *Analysis, sess *cascades.Session) {
	cfgs := l.cfgs
	a.Footprint.Candidates = len(cfgs)
	a.Sched = SchedStats{MaxWorkers: 1}
	compiled := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "compiled")
	noplan := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "noplan")
	faulted := p.Obs.Counter("steerq_pipeline_candidates_total", "outcome", "faulted")
	if res := l.res.Load(); res != nil {
		a.Candidates, a.res = res.cands, res
		a.Footprint.Avoided = len(cfgs)
		p.Cache.hits.Add(uint64(len(cfgs)))
		compiled.Add(uint64(len(res.cands)))
		noplan.Add(uint64(res.noplan))
		return
	}
	if kept {
		p.Cache.candProbes.Add(uint64(len(cfgs)))
	}
	cands := make([]Candidate, 0, len(cfgs))
	nNoplan, clean := 0, true
	for i, cfg := range cfgs {
		v, _, hit, err := p.compile(ctx, sess, job, cfg, compileTag{kind: "cand", n: i}, &a.Robustness, false)
		if hit {
			a.Footprint.Avoided++
		} else {
			a.Footprint.Compiled++
		}
		if err != nil && !errors.Is(err, cascades.ErrNoPlan) {
			// Faulted compile: no footprint to trust, nothing written back.
			faulted.Inc()
			clean = false
			continue
		}
		if !v.OK {
			noplan.Inc()
			nNoplan++
			continue
		}
		compiled.Inc()
		cands = append(cands, Candidate{Config: cfg, EstCost: v.Cost, Signature: v.Signature})
	}
	a.Sched.Items = a.Footprint.Compiled
	res := newResolution(cands, nNoplan)
	a.Candidates, a.res = res.cands, res
	if kept && clean {
		// A concurrent analysis of the job may have kept an identical one.
		l.res.CompareAndSwap(nil, res)
	}
}

// compile is every compile of an analysis: job under cfg through the cache
// (CompileCache.compile) and, on a miss, through sess under the harness's
// retry loop. A trial's compile keeps its plan in the cache and is recorded
// as the trial's abtest.compile span; span probes and candidates keep the
// costed verdict only. attempts is 1 on a cache hit: a kept outcome stands
// for the one clean compile that wrote it. tag names the compile for fault
// decisions and a trial's compile span; it is formatted only on a miss that
// something reads it on — a trial, or any compile under fault injection —
// since a warm pass probes the cache far more often than it compiles and a
// cold pass without injection never reads a probe's or candidate's name.
func (p *Pipeline) compile(ctx context.Context, sess *cascades.Session, job *workload.Job, cfg bitvec.Vector, tag compileTag, rec *faults.Record, trial bool) (v CompileValue, attempts int, hit bool, err error) {
	retry := p.Harness.RetryCompile
	if trial {
		retry = p.Harness.CompileCtx
	}
	attempts = 1
	v, hit, err = p.Cache.compile(job, cfg, trial, func() (*cascades.Result, error) {
		name := ""
		if trial || p.Harness.Faults.Active() {
			name = tag.name(job.ID)
		}
		res, n, rerr := retry(ctx, name, rec, func(plan bool) (*cascades.Result, error) {
			return sess.Optimize(cfg, plan || trial)
		})
		attempts = n
		return res, rerr
	})
	return v, attempts, hit, err
}

// compileTag names one compile of an analysis: a trial's full tag, or the
// kind and index of a span probe ("span") or candidate ("cand").
type compileTag struct {
	full string
	kind string
	n    int
}

// name is the tag as fault decisions and spans read it: full, else
// "<job>/<kind><n>".
func (t compileTag) name(jobID string) string {
	if t.full != "" {
		return t.full
	}
	return jobID + "/" + t.kind + strconv.Itoa(t.n)
}

// Trial is one A/B run of job under cfg — Harness.RunConfigCtx through the
// pipeline's compile cache, on an optimizer session of its own. It is the
// trial every caller outside an analysis runs (extrapolation, the
// experiments' default runs and random picks): tag names the run's exec
// noise and fault decisions, and rec, when non-nil, tallies its retries.
func (p *Pipeline) Trial(ctx context.Context, job *workload.Job, cfg bitvec.Vector, tag string, rec *faults.Record) abtest.Trial {
	sess := p.Harness.Opt.NewSession(job.Root)
	defer sess.Close()
	return p.trial(ctx, sess, job, cfg, tag, rec)
}

// trial is Harness.RunConfigCtx through the analysis's compile path: the
// plan an earlier trial of cfg's footprint class left in the cache is
// executed as is, and a plan compiled here is left for the next trial — a
// re-analysis of a recurring job executes everything and compiles nothing.
// A kept plan runs from the ground truth the cache keeps with it for the
// job's day (prepared on its first re-execution that day), so it draws only
// its noise; the trial is the one executing the plan gives, bit for bit.
func (p *Pipeline) trial(ctx context.Context, sess *cascades.Session, job *workload.Job, cfg bitvec.Vector, tag string, rec *faults.Record) abtest.Trial {
	v, attempts, hit, err := p.compile(ctx, sess, job, cfg, compileTag{full: tag}, rec, true)
	if err != nil {
		return abtest.Trial{Config: cfg, Err: err, Attempts: attempts}
	}
	h := p.Harness
	res := &cascades.Result{Plan: v.Plan, Cost: v.Cost, Signature: v.Signature, Footprint: v.Footprint, Config: cfg}
	var t abtest.Trial
	if hit {
		t = h.ExecPreparedCtx(ctx, res, v.kept.prepared(h.Executor, job.Day, tag), tag, rec)
	} else {
		t = h.ExecCtx(ctx, res, job.Day, tag, rec)
	}
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
	a.Selected, a.Trials = selectCheapest(a.Candidates, a.candidateOrder(), a.Default.Signature, p.ExecutePerJob), nil
	// Each outcome's counter is resolved on its first trial only, so the
	// registry holds just the outcomes that happened.
	var trials [len(trialOutcomes)]*obs.Counter
	for i, c := range a.Selected {
		t := p.trial(ctx, sess, a.Job, c.Config, a.Job.ID+"/alt"+strconv.Itoa(i), &a.Robustness)
		if t.Err != nil && p.Harness.Faults.Active() {
			fb := a.Default
			fb.Attempts, fb.FellBack = t.Attempts, true
			a.Robustness.Fallbacks++
			t = fb
		}
		o := trialOutcome(t.Err, t.FellBack)
		if trials[o] == nil {
			trials[o] = p.Obs.Counter("steerq_pipeline_trials_total", "outcome", trialOutcomes[o])
		}
		trials[o].Inc()
		a.Trials = append(a.Trials, t)
	}
}

// candidateOrder returns the cost order of a.Candidates: the one their
// resolution computed, or a fresh one when a caller replaced the slice.
func (a *Analysis) candidateOrder() []int32 {
	if r := a.res; r != nil && len(r.cands) == len(a.Candidates) && (len(r.cands) == 0 || &r.cands[0] == &a.Candidates[0]) {
		return r.order
	}
	return costOrder(a.Candidates)
}

// costOrder returns the indexes of cands, cheapest estimated cost first. The
// sort is stable on EstCost alone: ties, NaN costs included, keep candidate
// order. It sorts indexes rather than the candidates themselves; a stable
// sort's output depends only on its comparisons, so the order is the one
// sorting the candidates would give.
func costOrder(cands []Candidate) []int32 {
	order := make([]int32, len(cands))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		cx, cy := cands[x].EstCost, cands[y].EstCost
		switch {
		case cx < cy:
			return -1
		case cy < cx:
			return 1
		}
		return 0
	})
	return order
}

// selectCheapest returns up to k candidates, walking their cost order order
// (see costOrder), at most one per rule signature and none with the default
// plan's signature def.
func selectCheapest(cands []Candidate, order []int32, def bitvec.Vector, k int) []Candidate {
	var sel []Candidate
	seen := map[bitvec.Key]bool{def.Key(): true}
	for _, i := range order {
		if len(sel) >= k {
			break
		}
		c := cands[i]
		sk := c.Signature.Key()
		if seen[sk] {
			continue
		}
		seen[sk] = true
		sel = append(sel, c)
	}
	return sel
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
