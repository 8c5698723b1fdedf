package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42).Derive("x", "y")
	b := New(42).Derive("x", "y")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("identical derivation paths diverge")
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(42)
	a := root.Derive("a")
	b := root.Derive("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different paths produced %d identical values", same)
	}
}

func TestDeriveOrderInsensitive(t *testing.T) {
	// Deriving b after consuming values from the parent must not change b's
	// stream: derivation depends only on the seed and path.
	r1 := New(7)
	r1.Float64()
	r1.Float64()
	b1 := r1.Derive("child").Float64()
	b2 := New(7).Derive("child").Float64()
	if b1 != b2 {
		t.Fatal("derived stream depends on parent consumption")
	}
}

func TestReseedDerivedMatchesDerive(t *testing.T) {
	// ReseedDerived must land dst on exactly the stream Derive returns:
	// same derived seed, same draw sequence, for every path shape.
	paths := [][]string{
		{},
		{"node"},
		{"node", "tag17"},
		{"exec", "wlA/j3", "5"},
		{"", ""},
	}
	root := New(99)
	scratch := New(0)
	for _, p := range paths {
		fresh := root.Derive(p...)
		root.ReseedDerived(scratch, p...)
		if scratch.Seed() != fresh.Seed() {
			t.Fatalf("ReseedDerived(%q) seed %d, Derive seed %d", p, scratch.Seed(), fresh.Seed())
		}
		for i := 0; i < 50; i++ {
			if a, b := scratch.Int63(), fresh.Int63(); a != b {
				t.Fatalf("ReseedDerived(%q) draw %d = %d, Derive = %d", p, i, a, b)
			}
		}
	}
	// Reuse of the same scratch for a new path must fully reset the state.
	root.ReseedDerived(scratch, "other")
	fresh := root.Derive("other")
	for i := 0; i < 50; i++ {
		if a, b := scratch.Int63(), fresh.Int63(); a != b {
			t.Fatalf("reused scratch draw %d = %d, want %d", i, a, b)
		}
	}
}

func TestReseedDerivedBytesMatchesDerive(t *testing.T) {
	root := New(99)
	scratch := New(0)
	buf := make([]byte, 0, 32)
	for _, tag := range []string{"", "7|lake/A/fact_001||50|1(v > 50),1,2", "\x00"} {
		buf = append(buf[:0], tag...)
		root.ReseedDerivedBytes(scratch, "node", buf)
		fresh := root.Derive("node", tag)
		if scratch.Seed() != fresh.Seed() {
			t.Fatalf("ReseedDerivedBytes(%q) seed %d, Derive seed %d", tag, scratch.Seed(), fresh.Seed())
		}
		for i := 0; i < 20; i++ {
			if a, b := scratch.Int63(), fresh.Int63(); a != b {
				t.Fatalf("ReseedDerivedBytes(%q) draw %d = %d, Derive = %d", tag, i, a, b)
			}
		}
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a := New(11)
	b := New(11)
	var buf []int
	for n := 0; n <= 12; n++ {
		want := a.Perm(n)
		buf = b.PermInto(buf, n)
		if len(buf) != len(want) {
			t.Fatalf("PermInto(%d) length %d, want %d", n, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("PermInto(%d)[%d] = %d, Perm = %d", n, i, buf[i], want[i])
			}
		}
	}
}

func TestUniformBounds(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(2)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
}

func TestPickWeights(t *testing.T) {
	r := New(5)
	w := []float64{0, 0, 10, 0}
	for i := 0; i < 100; i++ {
		if got := r.Pick(w); got != 2 {
			t.Fatalf("Pick of single-weight vector = %d", got)
		}
	}
	if got := r.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("Pick of all-zero weights = %d, want 0", got)
	}
	// Heavier weights drawn more often.
	w2 := []float64{1, 9}
	hits := 0
	for i := 0; i < 5000; i++ {
		if r.Pick(w2) == 1 {
			hits++
		}
	}
	frac := float64(hits) / 5000
	if math.Abs(frac-0.9) > 0.05 {
		t.Fatalf("Pick weight 9:1 hit fraction %v, want ~0.9", frac)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(6)
	got := r.Sample(10, 5)
	if len(got) != 5 {
		t.Fatalf("Sample(10,5) length %d", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("Sample value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("Sample returned duplicate %d", v)
		}
		seen[v] = true
	}
	if len(r.Sample(3, 10)) != 3 {
		t.Fatal("Sample with k>n should return n values")
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(8)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / 10000
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

func TestExpPositiveDeterministicMean(t *testing.T) {
	a := New(3).Derive("exp")
	b := New(3).Derive("exp")
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := a.Exp(4)
		if x <= 0 {
			t.Fatalf("Exp returned %g, want > 0", x)
		}
		if y := b.Exp(4); y != x {
			t.Fatal("identical streams diverge on Exp")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Exp(4) mean %g, want ~0.25", mean)
	}
}

func TestExpBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}
