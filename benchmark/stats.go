package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the middle two when even), 0 for
// no samples — a layer that was never called was busy for no time.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// spreadPct is (max-min)/median of xs in percent.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return 100 * (hi - lo) / m
}

// ratio is a/b, 0 when b is 0 (no attempts, no share).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// now is the benchmark's one clock read.
func now() time.Time {
	// The benchmark times calls into the layers from outside; nothing read
	// here feeds a golden.
	// steerq:allow-wallclock — this IS the measurement.
	return time.Now()
}

// stopwatch times one call from outside.
func stopwatch(f func()) time.Duration {
	t0 := now()
	f()
	return now().Sub(t0)
}
