// Package xrand provides deterministic, splittable random number streams.
//
// Every stochastic component of steerq (workload generation, data statistics,
// configuration sampling, execution noise, model initialization) draws from a
// stream derived from a single experiment seed plus a textual path such as
// "workloadA/day3/job17". Equal paths yield equal streams, so experiments are
// reproducible and independent components do not perturb each other's
// randomness when code paths change.
//
// steerq:hotpath — the execution simulator repositions a stream and draws
// from it once per plan node; the hotalloc analyzer,
// TestReseedDrawAllocationFree and BenchmarkReseedDraw3 keep that at no
// allocation and a few dozen nanoseconds. Every bit drawn is
// rand.NewSource's (source.go, DESIGN.md "Determinism"); the equivalence
// tests in source_test.go are what allow touching the generator at all.
package xrand

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with a seed
// derived from a root seed and a path, and offers the distributions used by
// the simulator.
type Source struct {
	seed uint64
	rng  *rand.Rand
}

// New returns a stream for the given root seed. The underlying generator is
// allocated on the first draw: its state is ~5KB, and a derived stream may be
// constructed on a path that ends up drawing nothing from it. The sequence is
// rand.NewSource(seed)'s either way.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// gen returns the stream's generator, allocating it on first use. The
// distributions are math/rand's own code over source (source.go), which
// yields rand.NewSource's words but seeds only the ones a stream draws.
func (s *Source) gen() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(newSource(int64(s.seed)))
	}
	return s.rng
}

// Derive returns a new independent stream whose seed is a hash of the parent
// seed and the path components. Deriving the same path twice yields streams
// that produce identical sequences.
func (s *Source) Derive(path ...string) *Source {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(s.seed >> (8 * uint(i)))
	}
	h.Write(buf[:])
	for _, p := range path {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return New(h.Sum64())
}

// ReseedDerived repositions dst onto the stream that s.Derive(path...) would
// return, reusing dst's internal generator state instead of allocating a new
// one (~5KB). Seeding a drawn generator repositions it exactly where a new
// one would start, so the resulting sequence is identical to a freshly
// derived stream. dst must not be shared across goroutines.
func (s *Source) ReseedDerived(dst *Source, path ...string) {
	h := s.fnvSeed()
	for _, p := range path {
		h = fnvPart(h, p)
	}
	dst.reseed(h)
}

// ReseedDerivedBytes is ReseedDerived(dst, label, string(tag)) for a tag the
// caller assembled in a reusable buffer: the same bytes are hashed, so the
// same stream results, without the string.
func (s *Source) ReseedDerivedBytes(dst *Source, label string, tag []byte) {
	dst.reseed(fnvPart(fnvPart(s.fnvSeed(), label), tag))
}

// FNV-1a 64, as hash/fnv computes it in Derive.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvSeed hashes the stream's seed, little-endian: the start of every
// derivation.
func (s *Source) fnvSeed() uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(s.seed >> (8 * uint(i))))
		h *= fnvPrime64
	}
	return h
}

// fnvPart hashes one path component behind its 0 separator byte (whose xor
// is a no-op).
func fnvPart[T string | []byte](h uint64, p T) uint64 {
	h *= fnvPrime64
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime64
	}
	return h
}

func (s *Source) reseed(seed uint64) {
	s.seed = seed
	if s.rng != nil {
		s.rng.Seed(int64(seed))
	}
	// A source that has never drawn has no generator yet; gen() will seed it
	// from the updated seed on first use, which is the same sequence.
}

// Seed returns the stream's seed, useful for diagnostics.
func (s *Source) Seed() uint64 { return s.seed }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return s.gen().Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.gen().Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.gen().Float64() }

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.gen().Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.gen().NormFloat64()
}

// LogNormal returns a log-normally distributed float64 where the underlying
// normal has the given mu and sigma. Job runtimes in big-data clusters are
// approximately log-normal (Figure 2a), which is why the workload generator
// and the noise model both use this distribution.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Exp returns an exponentially distributed float64 with the given rate
// (mean 1/rate). Inter-arrival gaps of a Poisson process are exponential,
// which is what the open-loop load generator schedules arrivals with. It
// panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		// steerq:allow-panic — programmer error, exactly like Intn(0).
		panic(fmt.Sprintf("xrand: Exp rate %g <= 0", rate))
	}
	return s.gen().ExpFloat64() / rate
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.gen().Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.gen().Perm(n) }

// PermInto writes a pseudo-random permutation of [0, n) into dst, growing it
// only when capacity is short, and returns it. It consumes the stream with
// exactly the same draws as Perm (math/rand's inside-out shuffle), so hot
// paths can switch to a reusable buffer without perturbing any downstream
// randomness.
func (s *Source) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	// The i=0 iteration swaps dst[0] with itself but still consumes one
	// Intn draw — math/rand.Perm keeps it for stream compatibility, and so
	// must we.
	for i := 0; i < n; i++ {
		j := s.gen().Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// Pick returns a uniformly chosen element index weighted by weights.
// Weights must be non-negative; if all are zero it returns 0.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	target := s.gen().Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if cum >= target {
			return i
		}
	}
	return len(weights) - 1
}

// Sample returns k distinct indices uniformly drawn from [0, n) in random
// order. If k >= n it returns a permutation of all n indices.
func (s *Source) Sample(n, k int) []int {
	p := s.gen().Perm(n)
	if k > n {
		k = n
	}
	return p[:k]
}
