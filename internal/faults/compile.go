package faults

import (
	"context"
	"fmt"

	"steerq/internal/cascades"
	"steerq/internal/plan"
	"steerq/internal/xrand"
)

// CompileAttempt runs one guarded compile attempt: it takes the fault
// decision for (site=compile, tag, attempt), runs compile unless an injected
// failure or hang preempts it, corrupts the winning plan when the decision
// says so, and — whenever injection is active — validates the plan before
// handing it back, so a corrupted result surfaces as a retryable ErrCorrupt
// instead of reaching the cache, the executor, or a report.
//
// compile's argument asks it for a plan. It is true exactly when injection is
// active: corruption and validation target the plan, so a caller that keeps
// only the costed verdict gets one built then, and skips plan
// materialization — a compile's single largest allocation — otherwise. A
// caller that needs the plan regardless builds it regardless.
//
// Validation on every compile (not just corrupted ones) is deliberate: the
// robustness layer must catch corruption by checking invariants, not by
// peeking at the injector's decision — that is what makes the metamorphic
// tests meaningful.
func (in *Injector) CompileAttempt(ctx context.Context, tag string, attempt int, compile func(plan bool) (*cascades.Result, error)) (*cascades.Result, error) {
	withPlan := in.Active()
	switch in.Decide(SiteCompile, tag, attempt) {
	case KindFail:
		return nil, Injectedf(SiteCompile, tag, attempt)
	case KindHang:
		return nil, Hang(ctx, SiteCompile, tag, attempt)
	case KindCorrupt:
		res, err := compile(withPlan)
		if err != nil {
			// Pass the optimizer's partial result (no-plan verdicts carry
			// the decision footprint) through with the error.
			return res, err
		}
		res.Plan = CorruptPlan(res.Plan, in.Rand(SiteCompile, tag, attempt))
		return in.validated(res, tag, attempt)
	}
	res, err := compile(withPlan)
	if err != nil {
		return res, err
	}
	return in.validated(res, tag, attempt)
}

// validated guards a compile result behind cascades.Validate when injection
// is active.
func (in *Injector) validated(res *cascades.Result, tag string, attempt int) (*cascades.Result, error) {
	if !in.Active() {
		return res, nil
	}
	// maxDOP 0: a virtual dataset legitimately runs above the optimizer's
	// per-operator cap, so a bound here would reject valid plans as corrupt
	// (see cascades.Validate).
	if err := cascades.Validate(res.Plan, 0); err != nil {
		return nil, fmt.Errorf("%w: compile %s attempt %d: %v", ErrCorrupt, tag, attempt, err)
	}
	return res, nil
}

// CorruptPlan returns a structurally broken deep copy of p: one node,
// picked by r, gets one of a few mutations every one of which violates a
// cascades.Validate invariant (a degree of parallelism below 1, a missing
// rule attribution). The original plan is untouched.
func CorruptPlan(p *plan.PhysNode, r *xrand.Source) *plan.PhysNode {
	cp := plan.ClonePhys(p)
	var nodes []*plan.PhysNode
	cp.Walk(func(n *plan.PhysNode) { nodes = append(nodes, n) })
	victim := nodes[r.Intn(len(nodes))]
	switch r.Intn(3) {
	case 0:
		victim.Dist.DOP = 0
	case 1:
		victim.Dist.DOP = -7
	default:
		victim.RuleID = -1
	}
	return cp
}
