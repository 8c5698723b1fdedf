package steering

import (
	"math"
	"slices"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/xrand"
)

// selectBySortedCopy is the selection Pipeline.execute made before it sorted
// keys: copy every candidate, stable-sort the copies on EstCost alone, then
// take the cheapest unseen signatures. Kept as selectCheapest's reference.
func selectBySortedCopy(cands []Candidate, def bitvec.Vector, k int) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	slices.SortStableFunc(sorted, func(x, y Candidate) int {
		switch {
		case x.EstCost < y.EstCost:
			return -1
		case y.EstCost < x.EstCost:
			return 1
		}
		return 0
	})
	var sel []Candidate
	seen := map[bitvec.Key]bool{def.Key(): true}
	for _, c := range sorted {
		if len(sel) >= k {
			break
		}
		if seen[c.Signature.Key()] {
			continue
		}
		seen[c.Signature.Key()] = true
		sel = append(sel, c)
	}
	return sel
}

// TestSelectCheapestMatchesSortedCopy: walking the candidates' kept cost
// order selects exactly the candidates, in exactly the order, that sorting
// copies of the candidates did — on lists with tied and NaN costs, duplicate
// signatures, the default's signature among them and k above the number of
// distinct signatures. The order is read both as a resolution keeps it and as
// an analysis whose Candidates a caller replaced computes it afresh.
func TestSelectCheapestMatchesSortedCopy(t *testing.T) {
	r := xrand.New(42)
	costs := []float64{1, 2, 2, 3, 3, 3, math.NaN(), math.NaN(), 0.5, math.Inf(1)}
	sig := func(i int) bitvec.Vector {
		var v bitvec.Vector
		v.Set(i)
		return v
	}
	ties, nans, dups, wideK := 0, 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(80)
		cands := make([]Candidate, n, n+r.Intn(3))
		sigs := map[bitvec.Key]bool{}
		for i := range cands {
			var cfg bitvec.Vector
			cfg.Set(i % bitvec.Width)
			cfg.Set((i / bitvec.Width) + 200)
			cands[i] = Candidate{Config: cfg, EstCost: costs[r.Intn(len(costs))], Signature: sig(r.Intn(12))}
			if math.IsNaN(cands[i].EstCost) {
				nans++
			}
			if i > 0 && cands[i].EstCost == cands[i-1].EstCost {
				ties++
			}
			if sigs[cands[i].Signature.Key()] {
				dups++
			}
			sigs[cands[i].Signature.Key()] = true
		}
		def, k := sig(r.Intn(12)), r.Intn(16)
		if k > len(sigs) {
			wideK++
		}
		res := newResolution(cands, 0)
		if cap(res.cands) != len(res.cands) || !sameCandidates(res.cands, cands) {
			t.Fatalf("trial %d: resolution keeps len %d, cap %d of %d candidates", trial, len(res.cands), cap(res.cands), n)
		}
		reversed := slices.Clone(cands)
		slices.Reverse(reversed)
		for _, a := range []*Analysis{
			{Candidates: res.cands, res: res},
			{Candidates: reversed, res: res}, // a caller replaced the slice
		} {
			want := selectBySortedCopy(a.Candidates, def, k)
			if got := selectCheapest(a.Candidates, a.candidateOrder(), def, k); !sameCandidates(got, want) {
				t.Fatalf("trial %d: selected %+v, the sorted copy %+v", trial, got, want)
			}
		}
	}
	if ties == 0 || nans == 0 || dups == 0 || wideK == 0 {
		t.Fatalf("%d ties, %d NaN costs, %d duplicate signatures and %d lists with k above their distinct signatures drawn; test is vacuous", ties, nans, dups, wideK)
	}
}

// sameCandidates reports whether x and y hold the same candidates in the same
// order, comparing costs bit for bit so that NaN equals NaN.
func sameCandidates(x, y []Candidate) bool {
	return slices.EqualFunc(x, y, func(a, b Candidate) bool {
		return a.Config == b.Config && a.Signature == b.Signature && math.Float64bits(a.EstCost) == math.Float64bits(b.EstCost)
	})
}
