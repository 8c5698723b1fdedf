package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/obs"
)

// Serving-tier metric names. Label values on the lookups counter are the
// three Kind wire names plus "unloaded" (lookups before any bundle is
// live) — a closed set, so cardinality is bounded by construction.
const (
	lookupsMetric       = "steerq_serve_lookups_total"
	lookupSecondsMetric = "steerq_serve_lookup_seconds"
	versionMetric       = "steerq_serve_bundle_version"
	entriesMetric       = "steerq_serve_bundle_entries"
	swapsMetric         = "steerq_serve_bundle_swaps_total"
	rejectedMetric      = "steerq_serve_bundle_rejected_total"
)

// lookupSecondsBounds bracket the microsecond-latency target: the whole
// point of serving from a precompiled table is that lookups sit in the
// sub-10µs buckets.
var lookupSecondsBounds = []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 1e-4, 1e-3}

// SDK is the embeddable serving API: the same decision table the daemon
// serves over HTTP, consulted in-process. It holds one atomic pointer to
// the active immutable Table; Load builds a new table off to the side and
// swaps the pointer once, so concurrent Lookups always observe exactly one
// bundle version (old or new, never a mixture).
//
// The zero value is not usable; build with NewSDK. All methods are safe for
// concurrent use. Lookup is allocation-free: instruments are resolved once
// here, and nothing on the read path escapes to the heap.
type SDK struct {
	clock obs.Clock
	table atomic.Pointer[Table]

	// loadMu serializes swaps so the version/entries gauges (last-write-
	// wins by contract) are only ever set from one goroutine at a time and
	// always describe the most recently swapped-in table.
	loadMu sync.Mutex

	hits      *obs.Counter
	fallbacks *obs.Counter
	defaults  *obs.Counter
	unloaded  *obs.Counter
	swaps     *obs.Counter
	rejected  *obs.Counter
	latency   *obs.Histogram
	versionG  *obs.Gauge
	entriesG  *obs.Gauge
}

// NewSDK builds an SDK recording into reg (nil for an uninstrumented SDK;
// every instrument is then a recording no-op).
func NewSDK(reg *obs.Registry) *SDK {
	return &SDK{
		clock:     reg.Clock(),
		hits:      reg.Counter(lookupsMetric, "outcome", "hit"),
		fallbacks: reg.Counter(lookupsMetric, "outcome", "fallback"),
		defaults:  reg.Counter(lookupsMetric, "outcome", "default"),
		unloaded:  reg.Counter(lookupsMetric, "outcome", "unloaded"),
		swaps:     reg.Counter(swapsMetric),
		rejected:  reg.Counter(rejectedMetric),
		latency:   reg.Histogram(lookupSecondsMetric, lookupSecondsBounds),
		versionG:  reg.Gauge(versionMetric),
		entriesG:  reg.Gauge(entriesMetric),
	}
}

// Load validates b and atomically swaps it in as the active decision table.
// On error the previous table stays live untouched.
func (s *SDK) Load(b *bundle.Bundle) error {
	if b == nil {
		s.rejected.Inc()
		return fmt.Errorf("serve: load: nil bundle")
	}
	t := NewTable(b)
	s.loadMu.Lock()
	s.table.Store(t)
	s.versionG.Set(float64(t.version))
	s.entriesG.Set(float64(t.Len()))
	s.loadMu.Unlock()
	s.swaps.Inc()
	return nil
}

// LoadBytes decodes an encoded bundle and loads it. A corrupted or
// truncated artifact is rejected — counted on the rejected counter — and
// the active table stays live.
func (s *SDK) LoadBytes(data []byte) error {
	b, err := bundle.Decode(data)
	if err != nil {
		s.rejected.Inc()
		return fmt.Errorf("serve: load bundle: %w", err)
	}
	return s.Load(b)
}

// LoadFile reads, decodes and loads the bundle at path, with the same
// reject-keeps-old contract as LoadBytes.
func (s *SDK) LoadFile(path string) error {
	b, err := bundle.ReadFile(path)
	if err != nil {
		s.rejected.Inc()
		return fmt.Errorf("serve: load bundle: %w", err)
	}
	return s.Load(b)
}

// Ready reports whether a bundle is live.
func (s *SDK) Ready() bool { return s.table.Load() != nil }

// Active returns the active decision table, or nil before the first
// successful Load. The returned table is immutable and remains valid (as
// that bundle's table) even after later swaps.
func (s *SDK) Active() *Table { return s.table.Load() }

// Lookup resolves one default rule signature against the active table. The
// boolean is false — with a zero Decision — when no bundle is live yet.
// Allocation-free after warmup; the per-kind counters and the latency
// histogram record every call.
func (s *SDK) Lookup(sig bitvec.Vector) (Decision, bool) {
	start := s.clock()
	t := s.table.Load()
	if t == nil {
		s.unloaded.Inc()
		s.latency.Observe(s.clock().Sub(start).Seconds())
		return Decision{}, false
	}
	d := t.Lookup(sig)
	switch d.Kind {
	case KindHit:
		s.hits.Inc()
	case KindFallback:
		s.fallbacks.Inc()
	case KindDefault:
		s.defaults.Inc()
	}
	s.latency.Observe(s.clock().Sub(start).Seconds())
	return d, true
}

// Decide is the abtest.Steerer surface: the configuration to compile the
// job under, given its default rule signature. It reports false when no
// bundle is live — the caller then compiles the default, exactly as an
// unsteered cluster would.
func (s *SDK) Decide(sig bitvec.Vector) (bitvec.Vector, bool) {
	d, ok := s.Lookup(sig)
	if !ok {
		return bitvec.Vector{}, false
	}
	return d.Config, true
}
