package workload_test

import (
	"math"
	"testing"

	"steerq/internal/workload"
)

// TestZipfProbsSumAndMonotone: the serving benchmark's per-request draw
// distribution must be a genuine probability vector (sums to 1) that is
// rank-monotone and follows the law p[k]/p[0] = (k+1)^-s, with s=0 the exact
// uniform limit.
func TestZipfProbsSumAndMonotone(t *testing.T) {
	const n, s = 64, 1.1
	p := workload.ZipfProbs(n, s)
	if len(p) != n {
		t.Fatalf("len = %d, want %d", len(p), n)
	}
	var sum float64
	for i, v := range p {
		if v <= 0 {
			t.Fatalf("prob[%d] = %v, want positive", i, v)
		}
		if i > 0 && v > p[i-1] {
			t.Fatalf("probs not rank-monotone at %d: %v > %v", i, v, p[i-1])
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %v, want 1", sum)
	}
	for _, k := range []int{1, 7, 63} {
		if got, want := p[k]/p[0], math.Pow(float64(k+1), -s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("p[%d]/p[0] = %v, want %v", k, got, want)
		}
	}
	for i, v := range workload.ZipfProbs(5, 0) {
		if math.Abs(v-0.2) > 1e-12 {
			t.Fatalf("uniform limit prob[%d] = %v, want 0.2", i, v)
		}
	}
}
