package steering

import (
	"context"
	"fmt"
	"sort"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
)

// iterativeRounds is how many feedback rounds IterativeSearch splits the
// pipeline's budgets into.
const iterativeRounds = 3

// IterativeResult is the outcome of an iterative search.
type IterativeResult struct {
	// Trials are all executed trials across rounds, in execution order.
	Trials []RoundTrial
	// Best is the best-runtime trial found (nil if none improved).
	Best *RoundTrial
}

// RoundTrial tags a trial with the round that produced it.
type RoundTrial struct {
	Round     int
	Config    bitvec.Vector
	Signature bitvec.Vector
	EstCost   float64
	Runtime   float64
}

// IterativeSearch implements the first future-work direction of §8: "use
// feedback from the execution results to guide future iterations of the
// configuration search". Instead of one round of M random candidates and one
// batch of executions, the search spends the pipeline's budgets in three
// rounds of at most MaxCandidates/3 compiles and ExecutePerJob/3 executions;
// after each round the per-rule toggle statistics of the *executed* trials
// reweight the sampling — rules whose flips correlated with runtime
// improvements are flipped more often, rules that correlated with
// regressions revert toward the default. It reads only a's job, span and
// default trial. Candidates compile plan-less and trials execute through the
// pipeline's compile cache, on one optimizer session, so a second search
// over the same analysis compiles nothing.
func IterativeSearch(p *Pipeline, a *Analysis) (*IterativeResult, error) {
	h := p.Harness
	rs := h.Opt.Rules
	job := a.Job
	def := rs.DefaultConfig()
	perRound := p.MaxCandidates / iterativeRounds
	executePerRound := p.ExecutePerJob / iterativeRounds
	// A trial compiles the plan it executes unless the cache keeps one, so
	// a round samples its compile budget minus its executions' worth of
	// candidates, no-plan ones included: M bounds an uncached search.
	samplePerRound := perRound - executePerRound

	res := &IterativeResult{}
	spanBits := a.Span.Ones()
	if len(spanBits) == 0 {
		return res, nil
	}
	sess := h.Opt.NewSession(job.Root)
	defer sess.Close()

	// flipWeight[i] is the sampling weight for flipping span rule i away
	// from its default state; starts uniform and is reweighted by feedback.
	flipWeight := make(map[int]float64, len(spanBits))
	for _, id := range spanBits {
		flipWeight[id] = 1
	}

	seen := map[bitvec.Key]bool{def.Key(): true}
	seenSig := map[bitvec.Key]bool{a.Default.Signature.Key(): true}
	rnd := p.Rand.Derive("iterative", job.ID)
	defaultRT := a.Default.Metrics.RuntimeSec

	for round := 0; round < iterativeRounds; round++ {
		// Sample candidates: flip each span rule independently with a
		// probability proportional to its weight.
		var cands []Candidate
		attempts, compiled := 0, 0
		r := rnd.Derive("round", fmt.Sprint(round))
		for compiled < samplePerRound && attempts < 20*perRound {
			attempts++
			cfg := bitvec.AllSet(bitvec.Width)
			for _, id := range spanBits {
				prob := flipWeight[id] / (flipWeight[id] + 1)
				if r.Bool(prob) {
					cfg.Assign(id, !def.Get(id))
				} else {
					cfg.Assign(id, def.Get(id))
				}
			}
			if seen[cfg.Key()] {
				continue
			}
			seen[cfg.Key()] = true
			compiled++
			v, _, err := p.Cache.compile(job, cfg, false, func() (*cascades.Result, error) {
				return sess.Optimize(cfg, false)
			})
			if err != nil {
				continue
			}
			cands = append(cands, Candidate{Config: cfg, EstCost: v.Cost, Signature: v.Signature})
		}
		// Execute the cheapest distinct-signature candidates.
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].EstCost < cands[j].EstCost })
		executed := 0
		for _, c := range cands {
			if executed >= executePerRound {
				break
			}
			if seenSig[c.Signature.Key()] {
				continue
			}
			seenSig[c.Signature.Key()] = true
			executed++
			t := p.trial(context.Background(), sess, job, c.Config, fmt.Sprintf("%s/it%d-%d", job.ID, round, executed), nil)
			if t.Err != nil {
				continue
			}
			rt := RoundTrial{
				Round:     round,
				Config:    c.Config,
				Signature: t.Signature,
				EstCost:   t.EstCost,
				Runtime:   t.Metrics.RuntimeSec,
			}
			res.Trials = append(res.Trials, rt)
			if res.Best == nil || rt.Runtime < res.Best.Runtime {
				last := res.Trials[len(res.Trials)-1]
				res.Best = &last
			}
			// Feedback: reward/punish every flipped rule by the trial's
			// relative improvement.
			gain := (defaultRT - rt.Runtime) / defaultRT // >0 is better
			for _, id := range spanBits {
				if c.Config.Get(id) != def.Get(id) {
					w := flipWeight[id] * weightUpdate(gain)
					flipWeight[id] = clampWeight(w)
				}
			}
		}
	}
	if res.Best != nil && res.Best.Runtime >= defaultRT {
		res.Best = nil
	}
	return res, nil
}

// weightUpdate converts a relative runtime gain into a multiplicative weight
// update: a 50% improvement roughly doubles a flip's weight, a 50% regression
// roughly halves it.
func weightUpdate(gain float64) float64 {
	if gain > 1 {
		gain = 1
	}
	if gain < -1 {
		gain = -1
	}
	return 1 + gain
}

func clampWeight(w float64) float64 {
	if w < 0.05 {
		return 0.05
	}
	if w > 20 {
		return 20
	}
	return w
}

// Independence implements the second future-work direction of §8:
// "improvements [to the heuristics] can discover independent subsets of
// rules, which will make the space of rule configurations smaller".
//
// Two span rules A and B are judged independent for a job when toggling them
// together produces exactly the composition of toggling them alone: with
// signatures s∅ (default), sA, sB and sAB, independence requires
//
//	sAB == s∅ Δ (s∅ Δ sA) Δ (s∅ Δ sB)    (Δ = symmetric difference)
//
// i.e. the plan changes caused by A and B compose without interaction. The
// prober tests pairs with four compilations each and returns the partition of
// the span into interaction groups; the search space shrinks from 2^|span| to
// the sum of 2^|group| (the §5.2 example: 2^5=32 → 2^2+2^3=12).
type Independence struct {
	// Groups partitions the probed span rules; rules in different groups
	// were observed independent.
	Groups [][]int
	// Compilations counts the probes issued, whether the compile cache
	// answered them or the optimizer ran.
	Compilations int
}

// ProbeIndependence partitions a job's span rules into interaction groups,
// compiling every probe plan-less on one optimizer session through the
// pipeline's compile cache.
func ProbeIndependence(p *Pipeline, a *Analysis) (*Independence, error) {
	h := p.Harness
	rs := h.Opt.Rules
	def := rs.DefaultConfig()
	job := a.Job
	bits := a.Span.Ones()
	out := &Independence{}
	if len(bits) == 0 {
		return out, nil
	}

	sess := h.Opt.NewSession(job.Root)
	defer sess.Close()
	sig := func(cfg bitvec.Vector) (bitvec.Vector, bool) {
		out.Compilations++
		v, _, err := p.Cache.compile(job, cfg, false, func() (*cascades.Result, error) {
			return sess.Optimize(cfg, false)
		})
		if err != nil {
			return bitvec.Vector{}, false
		}
		return v.Signature, true
	}
	s0, ok := sig(def)
	if !ok {
		return nil, fmt.Errorf("steering: default of %s does not compile", job.ID)
	}
	toggled := func(ids ...int) bitvec.Vector {
		cfg := def
		for _, id := range ids {
			cfg.Assign(id, !def.Get(id))
		}
		return cfg
	}
	single := make(map[int]bitvec.Vector, len(bits))
	for _, id := range bits {
		s, ok := sig(toggled(id))
		if !ok {
			// A rule whose solo toggle breaks compilation interacts with
			// everything (it gates required implementations); give it its
			// own group and skip pair probes.
			continue
		}
		single[id] = s
	}

	// Union-find over span rules; dependent pairs merge.
	parent := make(map[int]int, len(bits))
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range bits {
		parent[id] = id
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for i := 0; i < len(bits); i++ {
		for j := i + 1; j < len(bits); j++ {
			x, y := bits[i], bits[j]
			sx, okx := single[x]
			sy, oky := single[y]
			if !okx || !oky {
				union(x, y) // conservatively dependent
				continue
			}
			sxy, ok := sig(toggled(x, y))
			if !ok {
				union(x, y)
				continue
			}
			composed := s0.Xor(s0.Xor(sx)).Xor(s0.Xor(sy))
			if !sxy.Equal(composed) {
				union(x, y)
			}
		}
	}

	groups := make(map[int][]int)
	for _, id := range bits {
		r := find(id)
		groups[r] = append(groups[r], id)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		sort.Ints(groups[r])
		out.Groups = append(out.Groups, groups[r])
	}
	return out, nil
}

// SearchSpace returns the configuration-space sizes before and after the
// independence partition: 2^span versus the sum of per-group subspaces.
func (ind *Independence) SearchSpace(spanSize int) (naive, partitioned float64) {
	naive = pow2(spanSize)
	for _, g := range ind.Groups {
		partitioned += pow2(len(g))
	}
	return naive, partitioned
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}
