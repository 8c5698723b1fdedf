// Package obs is steerq's dependency-free observability layer: counters,
// gauges and fixed-bucket histograms plus lightweight spans, all collected
// into one Registry and read as a Snapshot. A snapshot has two encodings:
// the canonical JSON file every CLI writes with -metrics-out (lossless, spans
// keep their paths), and the Prometheus-style text exposition steerqd serves
// live at /metrics.
//
// The production follow-up to the source paper ("Deploying a Steered Query
// Optimizer in Production at Microsoft") ships steering only because every
// pipeline stage is instrumented — rule-config hit rates, regression
// guardrails, per-stage latency. This package is the reproduction's version
// of that telemetry plane, built under the same constraint as internal/par
// and internal/faults: determinism at any worker count.
//
// # Determinism
//
// Every metric accumulates commutative integer state — counters are atomic
// uint64 adds, histograms atomic bucket counts plus a fixed-point micro-unit
// sum — so the totals are a pure function of the *set* of observations,
// never of goroutine scheduling. Snapshots sort metrics by identity and spans
// by content-keyed path, so a Workers=1 and a Workers=8 run of the same
// seeded pipeline serialize byte-identically (under a virtual clock; see
// Clock).
//
// Gauges are last-write-wins and therefore must only be set from serial
// sections or via GaugeFunc, which is evaluated at snapshot time.
//
// # Nil safety
//
// A nil *Registry, nil *Counter, nil *Gauge, nil *Histogram and nil *Span
// are all valid and record nothing, so instrumented packages never need
// guards: observability is wired by threading one Registry, and its absence
// costs one nil check per call site.
package obs

import (
	"os"
	"sync"
	"time"
)

// Clock supplies span timestamps. Production uses wall time; CI goldens use
// the frozen clock and tests a closure they step themselves, so span
// durations (the only wall-clock-dependent output) serialize identically on
// every run.
type Clock func() time.Time

// WallClock reads the real time. This is the module's one approved raw
// wall-clock seam: every other package threads a Clock obtained here or from
// ClockFromEnv, and detcheck enforces that discipline.
//
// steerq:allow-wallclock — the approved seam itself.
func WallClock() Clock { return time.Now }

// FrozenClock always reads the zero instant: every span duration is exactly
// zero, which is what makes full-snapshot goldens diffable across runs.
func FrozenClock() Clock {
	t0 := time.Unix(0, 0)
	return func() time.Time { return t0 }
}

// VClockEnv is the environment variable that switches ClockFromEnv to the
// frozen virtual clock. CI sets it for the metrics-golden smoke stage.
const VClockEnv = "STEERQ_VCLOCK"

// ClockFromEnv returns FrozenClock when STEERQ_VCLOCK is non-empty and
// WallClock otherwise. Both CLIs build their registries through this, so a
// pinned-seed run under STEERQ_VCLOCK=1 emits a byte-stable snapshot.
func ClockFromEnv() Clock {
	if os.Getenv(VClockEnv) != "" {
		return FrozenClock()
	}
	return WallClock()
}

// Registry holds one run's metrics and spans. The zero value is not usable;
// build one with New or NewWithClock. All methods are safe for concurrent
// use and safe on a nil receiver (recording nothing).
type Registry struct {
	clock Clock

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]gaugeFunc
	hists      map[string]*Histogram
	spans      []SpanPoint
}

type gaugeFunc struct {
	name   string
	labels []Label
	fn     func() float64
}

// New returns a registry on the wall clock.
func New() *Registry { return NewWithClock(WallClock()) }

// NewWithClock returns a registry whose spans read the given clock.
func NewWithClock(c Clock) *Registry {
	if c == nil {
		c = WallClock()
	}
	return &Registry{
		clock:      c,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]gaugeFunc),
		hists:      make(map[string]*Histogram),
	}
}

// now reads the registry clock (zero instant on nil).
func (r *Registry) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.clock()
}

// Clock exposes the registry's clock so callers timing their own phases
// (e.g. the serving SDK's lookup-latency histogram) read the same seam spans
// do: frozen or virtual clocks make those durations deterministic exactly
// like span durations. A nil registry returns the frozen clock — there is no
// instrument to record into, so the reading must at least be cheap and
// deterministic.
func (r *Registry) Clock() Clock {
	if r == nil {
		return FrozenClock()
	}
	return r.clock
}

// Counter returns (creating once) the counter with the given name and
// label pairs (key, value, key, value, ...). A nil registry returns a nil
// counter, which records nothing. Finding an existing counter allocates
// nothing, whatever order its labels are given in.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	var buf [idBuf]byte
	id := appendMetricID(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[string(id)]; ok {
		return c
	}
	c := &Counter{name: name, labels: labelPairs(labels)}
	r.counters[string(id)] = c
	return c
}

// Gauge returns (creating once) the gauge with the given name and label
// pairs. Gauges are last-write-wins: set them only from serial sections.
// Finding an existing gauge allocates nothing.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	var buf [idBuf]byte
	id := appendMetricID(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[string(id)]; ok {
		return g
	}
	g := &Gauge{name: name, labels: labelPairs(labels)}
	r.gauges[string(id)] = g
	return g
}

// GaugeFunc registers a gauge evaluated at snapshot time — the right shape
// for externally owned monotone state (cache entry counts, injector
// tallies). Registering the same identity again replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	id := string(appendMetricID(nil, name, labels))
	r.mu.Lock()
	r.gaugeFuncs[id] = gaugeFunc{name: name, labels: labelPairs(labels), fn: fn}
	r.mu.Unlock()
}

// Histogram returns (creating once) the fixed-bucket histogram with the
// given name, upper bounds (ascending; an implicit +Inf bucket is appended)
// and label pairs. Bounds are fixed at first registration; later callers
// get the existing instance regardless of the bounds they pass. Finding an
// existing histogram allocates nothing.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	var buf [idBuf]byte
	id := appendMetricID(buf[:0], name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[string(id)]; ok {
		return h
	}
	h := newHistogram(name, labelPairs(labels), bounds)
	r.hists[string(id)] = h
	return h
}

// idBuf is the stack buffer a lookup builds its metric identity in; a longer
// identity spills to the heap.
const idBuf = 256

// maxSortedPairs is how many label pairs keyOrder sorts in the caller's
// stack array.
const maxSortedPairs = 8

// keyOrder returns the indexes of kv's (key, value) pairs in key order, in
// idx when it is long enough. The sort is a stable insertion sort: label
// lists are short, and pairs with equal keys keep their given order.
func keyOrder(kv []string, idx []int) []int {
	n := (len(kv) + 1) / 2
	if n > cap(idx) {
		idx = make([]int, 0, n)
	}
	idx = idx[:0]
	for i := 0; i < n; i++ {
		j := len(idx)
		idx = append(idx, i)
		for ; j > 0 && kv[2*i] < kv[2*idx[j-1]]; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	return idx
}

// labelPairs folds a (key, value, key, value, ...) vararg list into sorted
// labels. A trailing odd key gets an empty value rather than being dropped,
// so a mistake is visible in the exposition instead of silent.
func labelPairs(kv []string) []Label {
	if len(kv) == 0 {
		return nil
	}
	var order [maxSortedPairs]int
	ls := make([]Label, 0, (len(kv)+1)/2)
	for _, i := range keyOrder(kv, order[:0]) {
		ls = append(ls, Label{Key: kv[2*i], Value: pairValue(kv, i)})
	}
	return ls
}

// pairValue is the value of kv's i-th pair, empty for a trailing odd key.
func pairValue(kv []string, i int) string {
	if 2*i+1 < len(kv) {
		return kv[2*i+1]
	}
	return ""
}

// appendMetricID appends the canonical identity of one metric instance to b:
// the name, then the labels of the (key, value, ...) list kv sorted by key
// as labelPairs sorts them, "{k=v,k=v}". It allocates only when b is too
// short or kv holds more than maxSortedPairs pairs.
func appendMetricID(b []byte, name string, kv []string) []byte {
	b = append(b, name...)
	if len(kv) == 0 {
		return b
	}
	var order [maxSortedPairs]int
	b = append(b, '{')
	for n, i := range keyOrder(kv, order[:0]) {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[2*i]...)
		b = append(b, '=')
		b = append(b, pairValue(kv, i)...)
	}
	return append(b, '}')
}
