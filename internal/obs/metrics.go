package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotone event count. Adds are atomic and commutative, so the
// total read at snapshot time is independent of goroutine scheduling — the
// property the W1-vs-W8 determinism suite asserts. The zero value is ready
// to use; a nil counter records nothing.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Uint64
}

// NewCounter returns a standalone counter not attached to any registry —
// useful for components (the compile cache) that keep counting whether or
// not observability is wired, and re-point to registry counters when it is.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value. Concurrent Sets race by
// design (the winner is schedule-dependent), so deterministic pipelines set
// gauges only from serial sections — or use Registry.GaugeFunc.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution held as atomic integers: one
// count per bucket and a sum in fixed-point micro-units. Integer addition is
// associative and commutative, which is what keeps the snapshot bit-identical
// at any worker count — a float64 sum would depend on accumulation order.
// Not sharded: measured (EXPERIMENTS.md "One way out for metrics"), the eight
// lock shards this replaced bought nothing on discover_cold or serve_steady
// (10 pairs each, every Δ inside the parent's quartile distance). A nil
// histogram records nothing.
type Histogram struct {
	name   string
	labels []Label
	// bounds are ascending upper bounds; observations above the last bound
	// land in the implicit +Inf bucket.
	bounds []float64
	// counts[i] tallies observations in bucket i; the last bucket is +Inf.
	counts    []atomic.Uint64
	sumMicros atomic.Int64
}

func newHistogram(name string, labels []Label, bounds []float64) *Histogram {
	return &Histogram{
		name:   name,
		labels: labels,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := len(h.bounds)
	for i, ub := range h.bounds {
		if v <= ub {
			b = i
			break
		}
	}
	h.counts[b].Add(1)
	h.sumMicros.Add(toMicros(v))
}

// toMicros converts an observation to fixed-point micro-units with
// round-half-away-from-zero. Per-observation rounding is deterministic, so
// the integer sum is too.
func toMicros(v float64) int64 {
	scaled := v * 1e6
	if scaled >= 0 {
		return int64(scaled + 0.5)
	}
	return int64(scaled - 0.5)
}

// snapshot reads the buckets in order. Count is their total, so Count and
// the buckets agree by construction; taken while observations are still
// landing, Sum may already include some that the buckets do not.
func (h *Histogram) snapshot() HistogramPoint {
	p := HistogramPoint{
		Name:   h.name,
		Labels: h.labels,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		p.Counts[i] = h.counts[i].Load()
		p.Count += p.Counts[i]
	}
	p.Sum = float64(h.sumMicros.Load()) / 1e6
	return p
}
