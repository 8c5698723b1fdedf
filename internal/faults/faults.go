// Package faults is the deterministic fault-injection layer behind the
// robustness test tier: it makes compiles and simulated executions fail,
// hang past their deadline, or return corrupted plans at configurable
// per-site probabilities, while keeping every run reproducible bit-for-bit
// at any worker count.
//
// Determinism is the design constraint, exactly as in internal/par and
// internal/exec: a fault decision is a pure function of (seed, site, tag,
// attempt) — it derives a private xrand stream from content, never from
// shared RNG state or scheduling order — so the same seed injects the same
// faults whether the pipeline runs on one worker or eight, and a failing
// seed from CI replays exactly on a laptop.
//
// The production follow-up to the paper ("Deploying a Steered Query
// Optimizer in Production at Microsoft") ships steering only with a safety
// net: validation, bounded retry and automatic fallback to the default
// configuration when a steered compile or execution misbehaves. This
// package provides both halves of that story for the reproduction — the
// misbehavior (Injector) and the machinery that survives it (Retry's fixed
// budget, Record, plan validation against corruption). The Plan — a seed
// and per-site rates, set by the CLIs' -fault-seed and -fault-rates flags —
// is the layer's only input.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"steerq/internal/obs"
	"steerq/internal/xrand"
)

// Kind classifies one injected fault.
type Kind uint8

// Fault kinds. KindNone means the operation proceeds untouched.
const (
	KindNone Kind = iota
	// KindFail makes the operation return ErrInjected immediately.
	KindFail
	// KindHang makes the operation block until its context deadline (or,
	// without one, fail at once) and return ErrTimeout — the simulator's
	// stand-in for a compile or vertex that stops making progress.
	KindHang
	// KindCorrupt lets the operation complete but hands back a structurally
	// broken result (a plan that fails cascades.Validate). Detection is the
	// caller's job — that is the point: the robustness layer must catch
	// corruption by validating, not by being told.
	KindCorrupt
)

var kindNames = [...]string{"none", "fail", "hang", "corrupt"}

func (k Kind) String() string { return kindNames[k] }

// Site identifies where in the pipeline an operation runs. Probabilities
// are configured per site.
type Site string

// Injection sites.
const (
	SiteCompile Site = "compile"
	SiteExec    Site = "exec"
)

// Probs are the per-attempt fault probabilities of one site. They are
// cumulative-sampled in order fail, hang, corrupt, so their sum must not
// exceed 1.
type Probs struct {
	Fail    float64
	Hang    float64
	Corrupt float64
}

// sum is the total fault probability of the site.
func (p Probs) sum() float64 { return p.Fail + p.Hang + p.Corrupt }

// Plan configures deterministic fault injection: a seed rooting every
// decision stream plus per-site probabilities.
type Plan struct {
	Seed    uint64
	Compile Probs
	Exec    Probs
}

// DefaultPlan returns a plan with moderate rates at both sites: high enough
// that a pipeline run of a few hundred compiles sees every fault kind, low
// enough that bounded retry almost always recovers (persistent failure
// needs every attempt's independent draw to fail).
func DefaultPlan(seed uint64) Plan {
	return Plan{
		Seed:    seed,
		Compile: Probs{Fail: 0.06, Hang: 0.03, Corrupt: 0.04},
		Exec:    Probs{Fail: 0.06, Hang: 0.03},
	}
}

// probs selects the site's probabilities.
func (p Plan) probs(site Site) Probs {
	if site == SiteExec {
		return p.Exec
	}
	return p.Compile
}

// Validate checks the plan's probabilities are sane.
func (p Plan) Validate() error {
	for _, s := range []struct {
		site Site
		pr   Probs
	}{{SiteCompile, p.Compile}, {SiteExec, p.Exec}} {
		for _, v := range []float64{s.pr.Fail, s.pr.Hang, s.pr.Corrupt} {
			if v < 0 || v > 1 {
				return fmt.Errorf("faults: %s probability %v outside [0, 1]", s.site, v)
			}
		}
		if s.pr.sum() > 1 {
			return fmt.Errorf("faults: %s probabilities sum to %v > 1", s.site, s.pr.sum())
		}
	}
	return nil
}

// Stats counts injected faults. All fields are monotone totals since the
// injector was built.
type Stats struct {
	Decisions uint64 // fault decisions taken (one per attempt per site)
	Fails     uint64
	Hangs     uint64
	Corrupts  uint64
}

// Injected returns the total number of injected faults of any kind.
func (s Stats) Injected() uint64 { return s.Fails + s.Hangs + s.Corrupts }

// Injector takes fault decisions for a Plan and counts what it injected.
// A nil *Injector is valid everywhere and injects nothing, so call sites
// need no guards; the same injector may be shared across goroutines,
// harnesses and pipelines of one experiment (decisions are content-keyed,
// the counters are atomic).
type Injector struct {
	plan      Plan
	decisions atomic.Uint64
	fails     atomic.Uint64
	hangs     atomic.Uint64
	corrupts  atomic.Uint64
}

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) *Injector { return &Injector{plan: p} }

// Plan returns the injector's configuration (zero value on nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Active reports whether fault injection is configured at all.
func (in *Injector) Active() bool { return in != nil }

// Decide returns the fault (or KindNone) for one attempt of one operation.
// The decision derives from (seed, site, tag, attempt) only: tags are
// content identifiers (job ID plus candidate index, never goroutine or
// completion order), and the attempt number makes retries redraw — a
// faulted first attempt does not doom the retry, and persistent failure
// requires every attempt's independent draw to land in the fault window.
func (in *Injector) Decide(site Site, tag string, attempt int) Kind {
	if in == nil {
		return KindNone
	}
	in.decisions.Add(1)
	pr := in.plan.probs(site)
	if pr.sum() <= 0 {
		return KindNone
	}
	u := in.rand("decide", site, tag, attempt).Float64()
	switch {
	case u < pr.Fail:
		in.fails.Add(1)
		return KindFail
	case u < pr.Fail+pr.Hang:
		in.hangs.Add(1)
		return KindHang
	case u < pr.Fail+pr.Hang+pr.Corrupt:
		in.corrupts.Add(1)
		return KindCorrupt
	}
	return KindNone
}

// Rand returns the content-keyed stream for auxiliary draws of one attempt
// (e.g. picking which plan node to corrupt). Distinct from the decision
// stream so adding draws never perturbs decisions.
func (in *Injector) Rand(site Site, tag string, attempt int) *xrand.Source {
	return in.rand("aux", site, tag, attempt)
}

func (in *Injector) rand(kind string, site Site, tag string, attempt int) *xrand.Source {
	return xrand.New(in.plan.Seed).Derive("fault", kind, string(site), tag, strconv.Itoa(attempt))
}

// Publish registers the injector's tallies as snapshot-time gauges on reg:
// decisions taken and faults injected per kind. Gauge functions read the
// atomic counters when the snapshot is taken, so the values are exact totals
// regardless of how many goroutines share the injector. Safe on a nil
// injector or registry.
func (in *Injector) Publish(reg *obs.Registry) {
	if in == nil || reg == nil {
		return
	}
	reg.GaugeFunc("steerq_faults_decisions", func() float64 {
		return float64(in.decisions.Load())
	})
	reg.GaugeFunc("steerq_faults_injected", func() float64 {
		return float64(in.fails.Load())
	}, "kind", "fail")
	reg.GaugeFunc("steerq_faults_injected", func() float64 {
		return float64(in.hangs.Load())
	}, "kind", "hang")
	reg.GaugeFunc("steerq_faults_injected", func() float64 {
		return float64(in.corrupts.Load())
	}, "kind", "corrupt")
}

// Stats snapshots the injection counters. Safe on nil.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Decisions: in.decisions.Load(),
		Fails:     in.fails.Load(),
		Hangs:     in.hangs.Load(),
		Corrupts:  in.corrupts.Load(),
	}
}

// Sentinel errors of the injection layer. Callers classify with errors.Is;
// all three are retryable (Retryable), unlike genuine compile failures such
// as cascades.ErrNoPlan which are deterministic properties of the input.
var (
	// ErrInjected marks an injected hard failure.
	ErrInjected = errors.New("faults: injected failure")
	// ErrTimeout marks an attempt that exceeded its deadline — injected
	// hang or genuine overrun alike.
	ErrTimeout = errors.New("faults: attempt timed out")
	// ErrCorrupt marks a result that failed structural validation.
	ErrCorrupt = errors.New("faults: corrupted result")
)

// Injectedf builds an ErrInjected-wrapping error identifying the operation.
func Injectedf(site Site, tag string, attempt int) error {
	return fmt.Errorf("%w: %s %s attempt %d", ErrInjected, site, tag, attempt)
}

// Hang simulates a stuck operation: it blocks until ctx's deadline fires
// and returns ErrTimeout (wrapping the context cause). Without a deadline on
// ctx nothing bounded would ever unblock it, so it times out immediately —
// the stand-in for a watchdog kill — which keeps unbounded runs
// deterministic instead of deadlocked.
func Hang(ctx context.Context, site Site, tag string, attempt int) error {
	if _, bounded := ctx.Deadline(); bounded {
		<-ctx.Done()
	}
	cause := ctx.Err()
	if cause == nil {
		cause = context.DeadlineExceeded
	}
	return fmt.Errorf("%w: %s %s attempt %d hung: %v", ErrTimeout, site, tag, attempt, cause)
}

// Retryable reports whether err is worth re-attempting: injected failures,
// timeouts and corruption are transient by construction; anything else
// (cascades.ErrNoPlan, binder errors) is deterministic and retrying would
// only repeat it.
func Retryable(err error) bool {
	return errors.Is(err, ErrInjected) || isTimeout(err) || isCorrupt(err)
}

func isTimeout(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded)
}

func isCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }
