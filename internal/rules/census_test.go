package rules_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// censusJob is one job of the census sample with the configurations it is
// compiled under.
type censusJob struct {
	root *plan.Node
	est  *cost.Estimator
	cfgs []bitvec.Vector
}

// outcome is what a compile decides: the cost bits and signature of its
// plan, or that no plan exists.
type outcome struct {
	cost   uint64
	sig    bitvec.Key
	noPlan bool
}

// censusSample draws the fixed census sample: every job of day 0 of Workloads
// A, B and C at scale 0.002, each under the default configuration, the
// configuration enabling every non-required rule and up to m span-guided
// candidates sampled the way the discovery pipeline samples them.
func censusSample(t *testing.T, rs *cascades.RuleSet, m int) []censusJob {
	t.Helper()
	const seed = 2021
	all := rs.NonRequired()
	var out []censusJob
	for _, p := range []workload.Profile{
		workload.ProfileA(0.002, seed), workload.ProfileB(0.002, seed), workload.ProfileC(0.002, seed),
	} {
		w := workload.Generate(p)
		est := cost.NewEstimated(w.Cat)
		opt := rules.NewOptimizer(est)
		for _, j := range w.Day(0) {
			span, err := steering.JobSpan(opt, j.Root)
			if err != nil {
				t.Fatalf("span of %s: %v", j.ID, err)
			}
			cfgs := []bitvec.Vector{rs.DefaultConfig(), all}
			cfgs = append(cfgs, steering.CandidateConfigs(span, rs, m, xrand.New(seed).Derive("census", j.ID))...)
			out = append(out, censusJob{root: j.Root, est: est, cfgs: cfgs})
		}
	}
	return out
}

// compileOutcomes compiles every job of the sample under rs, one session per
// job, and hands each outcome to visit in sample order; visit returns false to
// stop.
func compileOutcomes(t *testing.T, rs *cascades.RuleSet, sample []censusJob, visit func(i int, o outcome) bool) {
	t.Helper()
	i := 0
	for _, j := range sample {
		opt := rules.NewOptimizer(j.est)
		opt.Rules = rs
		sess := opt.NewSession(j.root)
		for _, cfg := range j.cfgs {
			var o outcome
			res, err := sess.Optimize(cfg, false)
			switch {
			case errors.Is(err, cascades.ErrNoPlan):
				o.noPlan = true
			case err != nil:
				sess.Close()
				t.Fatalf("compile: %v", err)
			default:
				o.cost, o.sig = math.Float64bits(res.Cost), res.Signature.Key()
			}
			if !visit(i, o) {
				sess.Close()
				return
			}
			i++
		}
		sess.Close()
	}
}

// withoutCode returns rs with the rule id moved from its transform or
// implement list to an info-only entry: same catalog, no behaviour.
func withoutCode(t *testing.T, rs *cascades.RuleSet, id int) *cascades.RuleSet {
	t.Helper()
	transforms := slices.DeleteFunc(slices.Clone(rs.Transforms), func(r cascades.TransformRule) bool { return r.Info().ID == id })
	implements := slices.DeleteFunc(slices.Clone(rs.Implements), func(r cascades.ImplementRule) bool { return r.Info().ID == id })
	var coded bitvec.Vector
	for _, r := range transforms {
		coded.Set(r.Info().ID)
	}
	for _, r := range implements {
		coded.Set(r.Info().ID)
	}
	var extra []cascades.RuleInfo
	for _, ri := range rs.Infos() {
		if !coded.Get(ri.ID) {
			extra = append(extra, ri)
		}
	}
	out, err := cascades.NewRuleSet(transforms, implements, extra)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBehaviourRulesChangeOutcomes is the rules' prove-or-delete census:
// every rule that carries code must change at least one compile outcome of a
// fixed sample when its code is taken away. A rule no outcome notices is a
// declared-only catalog entry in all but name, and loses its code.
//
// The sample is 6,062 compiles per rule set (M = 20). Each rule stops at its
// first changed outcome, so only the baseline and SelectSplitDisjunction
// compile all of it. A smaller M leaves the rarest rule,
// CorrelatedJoinOnUnionAll3, one changed outcome (M = 16) or none (M = 8).
//
// SelectSplitDisjunction is the one exception: the workload generator emits
// no disjunctive predicate, so the rule never matches, yet it keeps its code
// because its off-by-default bit enters the footprint of every compile that
// explores a Select. Deleting it drops that bit from those footprints, which
// moves the fault record and analyses hash that
// TestSessionFaultedBuildMatchesPerCompileBaseline freezes (CompileRetries
// 36 → 33).
func TestBehaviourRulesChangeOutcomes(t *testing.T) {
	rs := rules.Catalog()
	sample := censusSample(t, rs, 20)
	var base []outcome
	compileOutcomes(t, rs, sample, func(_ int, o outcome) bool {
		base = append(base, o)
		return true
	})
	t.Logf("%d jobs, %d compiles per rule set", len(sample), len(base))

	var coded []cascades.RuleInfo
	for _, r := range rs.Transforms {
		coded = append(coded, r.Info())
	}
	for _, r := range rs.Implements {
		coded = append(coded, r.Info())
	}
	for _, ri := range coded {
		changed := false
		compileOutcomes(t, withoutCode(t, rs, ri.ID), sample, func(i int, o outcome) bool {
			changed = o != base[i]
			return !changed
		})
		if inert := ri.ID == rules.IDSelectSplitDisjunction; changed == inert {
			if inert {
				t.Errorf("%s now changes a compile outcome: drop its exception", ri)
			} else {
				t.Errorf("%s changes no compile outcome: make it a declared-only entry", ri)
			}
		}
	}
}
