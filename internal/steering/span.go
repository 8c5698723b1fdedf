// Package steering implements the paper's contribution on top of the
// simulated SCOPE stack: rule signatures and job spans, randomized
// configuration search, the offline discovery pipeline, RuleDiff, rule-
// signature job groups and cross-day extrapolation.
//
// The candidate stage touches the cache, the footprint classifier and the
// selection loops once per candidate configuration.
package steering

import (
	"errors"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/plan"
)

// JobSpan approximates the job span (Definition 5.1, Algorithm 1): the set
// of non-required rules that can affect the final query plan.
//
// The algorithm starts from a configuration enabling every non-required rule,
// compiles, collects the signature's on rules, disables them and recompiles —
// iterating until no new rules appear or the job no longer compiles. As the
// paper notes (§5.1), this misses rules hidden behind complex dependency
// chains, but finds enough of the span for the configuration search to work.
// The probes compile on one plan-less optimizer session.
func JobSpan(opt *cascades.Optimizer, root *plan.Node) (bitvec.Vector, error) {
	sess := opt.NewSession(root)
	defer sess.Close()
	return JobSpanFunc(opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
		res, err := sess.Optimize(cfg, false)
		if err != nil {
			return bitvec.Vector{}, err
		}
		return res.Signature, nil
	})
}

// JobSpanFunc is JobSpan over an abstract compile step returning the rule
// signature for a configuration. The pipeline passes its cached compile so
// recurring jobs pay for each span iteration at most once.
func JobSpanFunc(rs *cascades.RuleSet, compile func(cfg bitvec.Vector) (bitvec.Vector, error)) (bitvec.Vector, error) {
	nonRequired := rs.NonRequired()

	var span bitvec.Vector
	config := nonRequired
	for {
		sig, err := compile(config)
		if err != nil {
			if errors.Is(err, cascades.ErrNoPlan) {
				// All implementations of some operator are disabled:
				// nothing more to discover down this path.
				return span, nil
			}
			return bitvec.Vector{}, err
		}
		onRules := sig.And(nonRequired)
		fresh := onRules.AndNot(span)
		if fresh.IsEmpty() {
			return span, nil
		}
		span = span.Or(fresh)
		config = config.AndNot(onRules)
	}
}

// SpanByCategory splits a span into per-category bit vectors indexed by
// cascades.Category, the granularity at which the configuration search
// assumes independence (§5.2).
func SpanByCategory(span bitvec.Vector, rs *cascades.RuleSet) [cascades.NumCategories]bitvec.Vector {
	var out [cascades.NumCategories]bitvec.Vector
	for _, id := range span.Ones() {
		if ri, ok := rs.Info(id); ok {
			out[ri.Category].Set(id)
		}
	}
	return out
}
