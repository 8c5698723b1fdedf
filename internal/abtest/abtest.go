// Package abtest models SCOPE's A/B testing infrastructure (§3.1.3): it
// re-executes recent production jobs — the original plan and alternative
// plans compiled under different rule configurations — on the pre-production
// cluster with outputs redirected and a pinned resource budget (50 tokens per
// job), so metric differences are attributable to the plans.
package abtest

import (
	"context"
	"errors"
	"fmt"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/exec"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/par"
	"steerq/internal/plan"
)

// Trial is the outcome of executing one (job, configuration) pair.
type Trial struct {
	Config    bitvec.Vector
	Signature bitvec.Vector
	// Footprint is the compile's decision footprint (see cascades.Result):
	// the rule IDs whose enabled-bit the search read. Configurations
	// agreeing on these bits produce this exact trial's plan.
	Footprint bitvec.Vector
	EstCost   float64
	Metrics   exec.Metrics
	// Err is non-nil when the job failed to compile under Config, or — with
	// fault injection active — when compile or execution exhausted its
	// retry budget.
	Err error
	// Attempts is the total number of compile plus execution attempts the
	// trial consumed (2 for a clean run, more under injected faults).
	Attempts int
	// FellBack marks a trial whose steered configuration failed
	// persistently and was replaced by the default configuration — the
	// deployment safety net. Set by the discovery pipeline, not here.
	FellBack bool
}

// Steerer is the in-process steering surface: given a job's default rule
// signature, it returns the rule configuration the serving tier recommends
// for that job group. serve.SDK implements it over the active bundle's
// decision table; this interface keeps abtest free of the serving
// dependency while letting the executor consult steering without HTTP —
// the embedded-SDK deployment shape from the paper's production successor.
type Steerer interface {
	Decide(sig bitvec.Vector) (cfg bitvec.Vector, ok bool)
}

// Harness re-executes plans with pinned resources. Its methods are safe for
// concurrent use: the optimizer and executor keep no cross-call state,
// execution noise is derived from (seed, jobTag, day), and fault decisions
// are derived from (fault seed, site, jobTag, attempt) — never from shared
// RNG state.
type Harness struct {
	Cat      *catalog.Catalog
	Opt      *cascades.Optimizer
	Executor *exec.Executor

	// Workers bounds the goroutines RunConfigs uses; zero resolves through
	// STEERQ_WORKERS and then GOMAXPROCS. Trials come back in input order
	// regardless.
	Workers int

	// Faults, when non-nil, injects deterministic compile and execution
	// faults. Assigning it also arms the executor (see SetFaults).
	Faults *faults.Injector

	// Retry bounds re-attempts of faulted compiles and executions. The
	// zero value resolves to faults.DefaultPolicy when Faults is set and
	// to a single attempt otherwise.
	Retry faults.Policy

	// CompileTimeout and ExecTimeout bound one attempt each; zero means no
	// deadline. An injected hang waits out the deadline and surfaces as
	// faults.ErrTimeout.
	CompileTimeout, ExecTimeout time.Duration

	// Obs, when non-nil, records an abtest.compile and abtest.exec span per
	// trial (tagged by jobTag — content, never schedule) plus per-site
	// attempt counters. Assign it together with Executor.SetObs (see
	// SetObs) so the whole trial reports into one registry.
	Obs *obs.Registry

	// Steer, when non-nil, is consulted by RunSteered with each job's
	// default rule signature; the trial then compiles under the returned
	// configuration instead of the default.
	Steer Steerer
}

// New builds a harness; the executor is configured with the standard
// 50-token budget.
func New(cat *catalog.Catalog, opt *cascades.Optimizer, seed uint64) *Harness {
	ex := exec.New(cat, seed)
	ex.Tokens = 50
	return &Harness{Cat: cat, Opt: opt, Executor: ex}
}

// SetFaults arms fault injection on the harness and its executor together,
// so compile-site and exec-site decisions share one seed.
func (h *Harness) SetFaults(in *faults.Injector) {
	h.Faults = in
	h.Executor.Faults = in
}

// SetObs wires observability on the harness and its executor together, so
// trial spans and execution histograms land in one registry.
func (h *Harness) SetObs(reg *obs.Registry) {
	h.Obs = reg
	h.Executor.SetObs(reg)
}

// compileOutcome classifies a trial's compile error for its span.
func compileOutcome(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, cascades.ErrNoPlan):
		return "noplan"
	default:
		return obs.OutcomeError
	}
}

// RunConfig compiles the job's logical plan under cfg and executes it for the
// given day. jobTag must uniquely identify the job instance so repeated
// executions of one plan see consistent cluster noise while different jobs
// see independent noise.
func (h *Harness) RunConfig(root *plan.Node, cfg bitvec.Vector, day int, jobTag string) Trial {
	return h.RunConfigCtx(context.Background(), root, cfg, day, jobTag, nil)
}

// RunConfigCtx is RunConfig with a context bounding the whole trial,
// per-attempt timeouts, fault injection and bounded retry: CompileCtx, then
// ExecCtx on its result. rec, when non-nil, observes retries and timeouts;
// pass one per pipeline unit and merge serially to keep reports deterministic
// at any worker count.
func (h *Harness) RunConfigCtx(ctx context.Context, root *plan.Node, cfg bitvec.Vector, day int, jobTag string, rec *faults.Record) Trial {
	res, attempts, err := h.CompileCtx(ctx, root, cfg, jobTag, rec)
	if err != nil {
		return Trial{Config: cfg, Err: err, Attempts: attempts}
	}
	t := h.ExecCtx(ctx, res, day, jobTag, rec)
	t.Attempts += attempts
	return t
}

// CompileCtx is the compile half of a trial: the job's logical plan
// optimized, with plan, under cfg. It returns the attempts consumed next to
// the result, which is nil when err is not.
func (h *Harness) CompileCtx(ctx context.Context, root *plan.Node, cfg bitvec.Vector, jobTag string, rec *faults.Record) (*cascades.Result, int, error) {
	var res *cascades.Result
	cctx, csp := h.Obs.StartSpan(ctx, "abtest.compile", jobTag)
	attempts, err := faults.PolicyOrDefault(h.Retry, h.Faults).Do(cctx, faults.SiteCompile, h.Faults.RetryRand(faults.SiteCompile, jobTag), rec,
		func(actx context.Context, attempt int) error {
			ictx, cancel := par.ItemContext(actx, h.CompileTimeout)
			defer cancel()
			r, cerr := h.Faults.CompileAttempt(ictx, jobTag, attempt, func() (*cascades.Result, error) {
				return h.Opt.Optimize(root, cfg)
			})
			if cerr != nil {
				return cerr
			}
			res = r
			return nil
		})
	csp.End(compileOutcome(err))
	h.Obs.Counter("steerq_abtest_attempts_total", "site", "compile").Add(uint64(attempts))
	return res, attempts, err
}

// ExecCtx is the execution half of a trial: res.Plan — any plan a compile of
// this job under res.Config yields, e.g. one kept from an earlier CompileCtx
// — run for the given day. The trial's Attempts count the executions only.
func (h *Harness) ExecCtx(ctx context.Context, res *cascades.Result, day int, jobTag string, rec *faults.Record) Trial {
	t := Trial{Config: res.Config, Signature: res.Signature, Footprint: res.Footprint, EstCost: res.Cost}
	ectx, esp := h.Obs.StartSpan(ctx, "abtest.exec", jobTag)
	t.Attempts, t.Err = faults.PolicyOrDefault(h.Retry, h.Faults).Do(ectx, faults.SiteExec, h.Faults.RetryRand(faults.SiteExec, jobTag), rec,
		func(actx context.Context, attempt int) error {
			ictx, cancel := par.ItemContext(actx, h.ExecTimeout)
			defer cancel()
			m, xerr := h.Executor.RunCtx(ictx, res.Plan, day, jobTag, attempt)
			if xerr != nil {
				return xerr
			}
			t.Metrics = m
			return nil
		})
	esp.EndErr(t.Err)
	h.Obs.Counter("steerq_abtest_attempts_total", "site", "exec").Add(uint64(t.Attempts))
	return t
}

// RunSteered executes the job the way a steered cluster would: compile the
// default configuration far enough to learn the job's rule signature, ask
// the Steerer for that group's recommended configuration, and run the trial
// under it. The boolean reports whether the trial was actually steered away
// from the default; with no Steerer wired (or no bundle live) the job runs
// unsteered, exactly as before deployment.
func (h *Harness) RunSteered(root *plan.Node, day int, jobTag string) (Trial, bool) {
	return h.RunSteeredCtx(context.Background(), root, day, jobTag, nil)
}

// RunSteeredCtx is RunSteered bounded by a context, with the same fault
// record contract as RunConfigCtx. The signature probe is a plan-less
// compile (OptimizeCost); if it fails, the job falls through to the
// unsteered path and RunConfigCtx surfaces the error with full retry
// handling.
func (h *Harness) RunSteeredCtx(ctx context.Context, root *plan.Node, day int, jobTag string, rec *faults.Record) (Trial, bool) {
	cfg := h.Opt.Rules.DefaultConfig()
	steered := false
	if h.Steer != nil {
		if res, err := h.Opt.OptimizeCost(root, cfg); err == nil {
			if sc, ok := h.Steer.Decide(res.Signature); ok && !sc.Equal(cfg) {
				cfg = sc
				steered = true
			}
		}
	}
	return h.RunConfigCtx(ctx, root, cfg, day, jobTag, rec), steered
}

// RunConfigs executes the job under every configuration, returning trials in
// input order. Compile failures are recorded, not fatal: many candidate
// configurations legitimately do not compile (§4).
func (h *Harness) RunConfigs(root *plan.Node, cfgs []bitvec.Vector, day int, jobTag string) []Trial {
	out, _ := par.Map(h.Workers, cfgs, func(i int, cfg bitvec.Vector) (Trial, error) {
		return h.RunConfig(root, cfg, day, fmt.Sprintf("%s/cfg%d", jobTag, i)), nil
	})
	return out
}
