package cost

import (
	"fmt"
	"math"
	"testing"

	"steerq/internal/catalog"
)

// refZipfFreq is zipfFreq as it was when it summed its own normaliser on
// every call, verbatim.
func refZipfFreq(r int, d, z float64) float64 {
	n := int(d)
	if n < 1 {
		n = 1
	}
	if n > 4096 {
		n = 4096
		r = r % n
		if r == 0 {
			r = n
		}
	}
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), z)
	}
	return (1 / math.Pow(float64(r), z)) / h
}

// TestZipfFreqMatchesReference: through the catalog's stored normaliser a
// skewed column gets bit for bit the frequency the per-call loop gave — at
// the head, mid-range and tail ranks, and at ranks past the 4,096 cap that
// wrap (including onto rank 4,096 itself). The columns span the generated
// lakes' key domains and filter cardinalities; catalog's own test holds the
// stored normaliser to the same loop for every generated column (package
// workload imports cost, so the lakes themselves are out of reach here).
func TestZipfFreqMatchesReference(t *testing.T) {
	st := &catalog.Stream{Name: "s"}
	for _, c := range []struct{ d, z float64 }{
		{5e5, 1.15 * 0.7}, {1.2e5, 0.9}, {4e6, 0.7 * 1.2}, {2e3, 1.3}, {8e5, 1.0}, {3e4, 1.2 * 1.2},
		{4, 0.8}, {59.7, 1.4}, {4096, 1}, {4097, 0.5}, {1, 2}, {0.5, 1.1},
	} {
		st.Columns = append(st.Columns, catalog.Column{Name: fmt.Sprintf("c%d", len(st.Columns)), TrueDistinct: c.d, Skew: c.z})
	}
	cat := catalog.New()
	cat.AddStream(st)
	for _, c := range st.Columns {
		_, col, sk := cat.ColumnBySource("s." + c.Name)
		d := int(c.TrueDistinct)
		for _, r := range []int{1, 2, d / 2, d, catalog.MaxRanks + 1, 2 * catalog.MaxRanks} {
			if r < 1 || r > max(d, 1) {
				continue // valueRank yields ranks in [1, max(d, 1)]
			}
			if got, want := zipfFreq(r, col, sk.ZipfNorm), refZipfFreq(r, c.TrueDistinct, c.Skew); got != want {
				t.Errorf("d=%v skew=%v rank %d: zipfFreq %v, reference %v", c.TrueDistinct, c.Skew, r, got, want)
			}
		}
	}
}
