package steering

import (
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/xrand"
)

// CandidateConfigs generates up to m unique candidate rule configurations for
// a job with the given span, by randomized search under the category-
// independence assumption (§5.2):
//
//  1. every rule outside the span is enabled (disabling a rule that cannot
//     affect the plan makes no difference, and rules missed by the span
//     heuristic can still help — footnote 2 of the paper);
//  2. per category, an independently sampled subset of the span rules is
//     disabled;
//  3. duplicates are discarded until m unique configurations exist, the span
//     is exhausted (n span rules admit exactly 2^n configurations, and the
//     sampler reaches every one) or the attempt budget runs out.
//
// How many values are drawn from r depends on where sampling stops, so r
// should be a stream derived for this call.
func CandidateConfigs(span bitvec.Vector, rs *cascades.RuleSet, m int, r *xrand.Source) []bitvec.Vector {
	byCat := SpanByCategory(span, rs)
	var catBits [][]int
	spanRules := 0
	for _, cat := range []cascades.Category{cascades.OffByDefault, cascades.OnByDefault, cascades.Implementation} {
		if v, ok := byCat[cat]; ok && !v.IsEmpty() {
			catBits = append(catBits, v.Ones())
			spanRules += v.Count()
		}
	}

	all := bitvec.AllSet(bitvec.Width)
	if m <= 0 {
		return nil
	}
	if len(catBits) == 0 {
		// An empty span admits exactly one configuration; sampling would
		// burn the whole attempt budget rediscovering it.
		return []bitvec.Vector{all}
	}
	// A small span has fewer than m configurations; once all 2^n are out,
	// the rest of the attempt budget could only rediscover duplicates.
	want := m
	if spanRules < 31 && 1<<spanRules < want {
		want = 1 << spanRules
	}
	seen := make(map[bitvec.Key]bool, want)
	out := make([]bitvec.Vector, 0, want)
	attempts := 0
	var permBuf []int // reused across attempts; PermInto draws exactly like Sample did
	for len(out) < want && attempts < 20*m+100 {
		attempts++
		cfg := all
		for _, bits := range catBits {
			// Sample an independent subset of this category's span rules
			// to disable (a k-prefix of a permutation, as xrand.Sample).
			k := r.Intn(len(bits) + 1)
			permBuf = r.PermInto(permBuf, len(bits))
			for _, idx := range permBuf[:k] {
				cfg.Clear(bits[idx])
			}
		}
		key := cfg.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cfg)
	}
	return out
}

// RuleDiff is the set of rules whose contribution to the final plan changed
// between the default configuration and a new configuration (Definition 6.1).
// Only changes that actually impacted the query plan appear: rules whose
// signature bit is equal in both plans are excluded.
type RuleDiff struct {
	// OnlyDefault lists rules used by the default plan but not the new one.
	OnlyDefault []int
	// OnlyNew lists rules used by the new plan but not the default one.
	OnlyNew []int
}

// Diff computes the RuleDiff between two rule signatures.
func Diff(defaultSig, newSig bitvec.Vector) RuleDiff {
	return RuleDiff{
		OnlyDefault: defaultSig.AndNot(newSig).Ones(),
		OnlyNew:     newSig.AndNot(defaultSig).Ones(),
	}
}

// DiffVector returns the symmetric-difference bit vector of two signatures,
// used as a model feature (§7.2, "a bit vector representing the RuleDiff").
func DiffVector(defaultSig, newSig bitvec.Vector) bitvec.Vector {
	return defaultSig.Xor(newSig)
}
