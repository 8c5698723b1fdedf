package xrand

// source is math/rand's additive lagged-Fibonacci generator (the one behind
// rand.NewSource), draw-for-draw identical to it, with the seeding made lazy.
//
// math/rand seeds by running a Lehmer generator x ← 48271·x mod 2³¹−1 for
// 20 + 3·607 sequential steps and packing three outputs, xored with a
// constant, into each of the 607 state words. Two facts make almost all of
// that skippable for a stream that draws only a few words:
//
//   - The Lehmer generator jumps ahead in O(1): step n is Aⁿ·seed mod M, so
//     state word i starts at lehmerPow[i]·seed, one multiplication away.
//   - Draw k (1-based) reads vec[334−k] and vec[607−k] and writes their sum
//     to vec[334−k]. Until k = 274, when the tap index first reaches a slot
//     an earlier draw wrote (333), both reads are of untouched seed words.
//
// So the first handOver (= 273) draws compute their two seed words directly;
// the draw after that fills every word no draw has written yet and from then
// on the generator is the ordinary loop over vec.
type source struct {
	tap, feed int
	seed      uint64 // folded into [1, M) exactly as math/rand folds it
	filled    bool   // vec holds every word; false while draws compute their own
	vec       [rngLen]int64
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1

	lehmerA = 48271
	lehmerM = 1<<31 - 1

	// handOver is how many draws after a Seed compute their seed words
	// directly before the rest of vec is filled: as many as the generator
	// allows. Draw rngTap+1 is the first whose tap index meets a slot an
	// earlier draw wrote, so no larger value is correct (the equivalence
	// tests fail at draw rngTap+1); and deferring that far is never a bad
	// bet, because a directly computed draw costs ~7 ns more than one from a
	// filled vec while the fill costs ~2.8 µs — more than all rngTap of them
	// together. It is not a tuning knob: every value in [0, rngTap] yields the
	// same bits, and EXPERIMENTS.md ("Lazy seeding") has the draw-count census
	// showing the streams that exist draw at most 150 words or at least 285,
	// so where in that gap the fill happens is worth ≈0.1 % of a run.
	handOver = rngTap
)

// lehmerPow[i] is A^(21+3i) mod M: seeding discards 20 Lehmer outputs and
// then spends three per word, so word i starts at output 21+3i.
var lehmerPow = func() (pow [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = lehmerStep(x)
	}
	for i := range pow {
		pow[i] = x
		x = lehmerStep(lehmerStep(lehmerStep(x)))
	}
	return pow
}()

// lehmerMul returns a·b mod 2³¹−1 for a, b < 2³¹. Because 2³¹ ≡ 1 (mod M) the
// high bits fold onto the low ones; neither factor is ≡ 0 and M is prime, so
// the folded value is never a multiple of M other than M itself.
func lehmerMul(a, b uint64) uint64 {
	p := a * b            // < 2⁶²
	p = p&lehmerM + p>>31 // < 2³²
	return lehmerFold(p&lehmerM + p>>31)
}

// lehmerStep is one seeding step, 48271·x mod 2³¹−1: the value math/rand's
// seedrand computes with Schrage's method in 32 bits.
func lehmerStep(x uint64) uint64 {
	p := lehmerA * x // < 2⁴⁷
	return lehmerFold(p&lehmerM + p>>31)
}

// lehmerFold finishes a reduction for p ≤ 2M.
func lehmerFold(p uint64) uint64 {
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

func newSource(seed int64) *source {
	r := &source{}
	r.Seed(seed)
	return r
}

// Seed repositions the generator on rand.NewSource(seed)'s sequence. Whatever
// vec holds from an earlier stream is dead: every word is written, by a draw
// or by fill, before anything reads it.
func (r *source) Seed(seed int64) {
	r.tap = rngLen // math/rand starts at 0; both step to rngLen−1
	r.feed = rngLen - rngTap
	r.filled = false

	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
}

// word returns seed word i: three consecutive Lehmer outputs packed 40/20/0
// bits up, xored with the cooked constant. Jumping to each word, not
// stepping from its neighbour, costs one wider multiply and leaves the words
// independent of each other, which is what lets fill overlap them.
func (r *source) word(i int) int64 {
	x := lehmerMul(lehmerPow[i], r.seed)
	u := x << 40
	x = lehmerStep(x)
	u ^= x << 20
	x = lehmerStep(x)
	return int64(u^x) ^ rngCooked[i]
}

// fill seeds every slot no draw has written. Slots [feed, rngLen−rngTap)
// hold sums; everything else is still unseeded, including the tap slots
// already read once (the feed index comes round to them after draw 334).
func (r *source) fill() {
	for i := 0; i < r.feed; i++ {
		r.vec[i] = r.word(i)
	}
	for i := rngLen - rngTap; i < rngLen; i++ {
		r.vec[i] = r.word(i)
	}
	r.filled = true
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *source) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (r *source) Uint64() uint64 {
	if !r.filled {
		if drawn := rngLen - r.tap; drawn < handOver {
			// Within the first rngTap draws neither index wraps and both
			// slots still await their seed words.
			r.tap--
			r.feed--
			x := r.word(r.feed) + r.word(r.tap)
			r.vec[r.feed] = x
			return uint64(x)
		}
		r.fill()
	}

	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
