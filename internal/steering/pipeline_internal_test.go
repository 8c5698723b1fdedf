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

// TestSelectCheapestMatchesSortedCopy: sorting (cost, index) keys selects
// exactly the candidates, in exactly the order, that sorting copies of the
// candidates did — on lists with tied and NaN costs, duplicate signatures
// and the default's signature among them.
func TestSelectCheapestMatchesSortedCopy(t *testing.T) {
	r := xrand.New(42)
	costs := []float64{1, 2, 2, 3, 3, 3, math.NaN(), math.NaN(), 0.5, math.Inf(1)}
	sig := func(i int) bitvec.Vector {
		var v bitvec.Vector
		v.Set(i)
		return v
	}
	ties, nans := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(80)
		cands := make([]Candidate, n)
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
		}
		def, k := sig(r.Intn(12)), r.Intn(12)
		got, want := selectCheapest(cands, def, k), selectBySortedCopy(cands, def, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d candidates, the sorted copy %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Config != want[i].Config || got[i].Signature != want[i].Signature ||
				math.Float64bits(got[i].EstCost) != math.Float64bits(want[i].EstCost) {
				t.Fatalf("trial %d: selection %d is %+v, the sorted copy's %+v", trial, i, got[i], want[i])
			}
		}
	}
	if ties == 0 || nans == 0 {
		t.Fatalf("%d ties and %d NaN costs drawn; test is vacuous", ties, nans)
	}
}
