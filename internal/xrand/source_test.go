package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// batterySeeds are the seeds the equivalence tests run: every branch of
// math/rand's seed folding (zero, negative, multiples of M, the value zero
// maps to, 64-bit magnitudes) plus random ones.
func batterySeeds() []int64 {
	const m = lehmerM
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, m + 1, 89482311,
		1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64,
	}
	r := rand.New(rand.NewSource(20261001))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// batteryDraws are the draw counts checked: exec's few words, around the
// hand-over (draw 274 is the first whose tap index meets a written slot),
// around draw 334 where the feed index wraps, around 607 where the tap index
// wraps, and a long stream.
var batteryDraws = []int{
	0, 1, 3, 8, handOver - 1, handOver, handOver + 1,
	333, 334, 335, 606, 607, 608, 2000,
}

// matchMathRand draws n words from src and from a new rand.NewSource(seed)
// and reports the first difference.
func matchMathRand(t *testing.T, src *source, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= n; k++ {
		// Alternate the two entry points: Int63 is Uint64 masked, on both.
		if k%2 == 0 {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, got, want)
			}
			continue
		}
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, k, got, want)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range batterySeeds() {
		matchMathRand(t, newSource(seed), seed, 2000)
	}
}

// TestSourceReseedMatchesMathRand is exec's reuse path: one source, seeded
// again after every draw count in the battery — vec untouched, partly
// summed, filled, wrapped — and then drawn through every phase, so a word
// left over from the earlier stream would show.
func TestSourceReseedMatchesMathRand(t *testing.T) {
	src := newSource(0)
	for _, n := range batteryDraws {
		for _, seed := range batterySeeds()[:40] {
			src.Seed(seed)
			matchMathRand(t, src, seed, n)
			src.Seed(^seed)
			matchMathRand(t, src, ^seed, 2000)
		}
	}
}

// TestSourceDistributionsMatchMathRand holds Source's distributions to a
// rand.Rand over rand.NewSource: same words in, same floats and ints out.
func TestSourceDistributionsMatchMathRand(t *testing.T) {
	for _, seed := range batterySeeds()[:64] {
		s := New(uint64(seed))
		ref := rand.New(rand.NewSource(seed))
		var perm []int
		for i := 0; i < 300; i++ {
			if got, want := s.Norm(1, 2), 1+2*ref.NormFloat64(); got != want {
				t.Fatalf("seed %d round %d: Norm %v, math/rand %v", seed, i, got, want)
			}
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d round %d: Float64 %v, math/rand %v", seed, i, got, want)
			}
			if got, want := s.Intn(1000), ref.Intn(1000); got != want {
				t.Fatalf("seed %d round %d: Intn %d, math/rand %d", seed, i, got, want)
			}
			if got, want := s.Exp(4), ref.ExpFloat64()/4; got != want {
				t.Fatalf("seed %d round %d: Exp %v, math/rand %v", seed, i, got, want)
			}
			if i%50 == 0 {
				perm = s.PermInto(perm, 9)
				for k, want := range ref.Perm(9) {
					if perm[k] != want {
						t.Fatalf("seed %d round %d: PermInto[%d] %d, math/rand %d", seed, i, k, perm[k], want)
					}
				}
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(0), int64(1))
	f.Add(int64(-1), uint16(handOver), int64(lehmerM))
	f.Add(int64(1)<<62, uint16(rngTap+1), int64(-lehmerM))
	f.Add(int64(89482311), uint16(rngLen+1), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64) {
		src := newSource(seed)
		matchMathRand(t, src, seed, int(draws))
		src.Seed(reseed)
		matchMathRand(t, src, reseed, int(draws)+handOver+1)
	})
}

// TestReseedDrawAllocationFree is exec's per-node noise: reposition a warmed
// stream and draw a LogNormal and a Bool from it.
func TestReseedDrawAllocationFree(t *testing.T) {
	root, scratch := New(7), New(0)
	tag := []byte("7|lake/A/fact_001||50|1(v > 50),1,2")
	scratch.Float64() // allocate the generator
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		root.ReseedDerivedBytes(scratch, "node", tag)
		sink += scratch.LogNormal(0, 0.3)
		if scratch.Bool(0.03) {
			sink++
		}
	})
	if allocs != 0 {
		t.Fatalf("reseed + LogNormal + Bool allocates %v times, want 0", allocs)
	}
}

var benchSink uint64

// BenchmarkReseedDraw3 is the short-stream path: what one plan node's noise
// costs the execution simulator.
func BenchmarkReseedDraw3(b *testing.B) {
	src := newSource(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		benchSink += src.Uint64() + src.Uint64() + src.Uint64()
	}
}

// BenchmarkSeedFill is the long-stream path (workload generation, nn
// initialisation): the fill and the ordinary loop. BenchmarkSeedFillMathRand
// is the same work on rand.NewSource's generator, the number to stay under.
func BenchmarkSeedFill(b *testing.B) {
	benchSeedFill(b, newSource(1))
}

func BenchmarkSeedFillMathRand(b *testing.B) {
	benchSeedFill(b, rand.NewSource(1).(rand.Source64))
}

func benchSeedFill(b *testing.B, src rand.Source64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for k := 0; k < 1000; k++ {
			benchSink += src.Uint64()
		}
	}
}
