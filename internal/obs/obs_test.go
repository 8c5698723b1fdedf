package obs_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"steerq/internal/obs"
)

func TestCounterIdentityAndValues(t *testing.T) {
	r := obs.New()
	a := r.Counter("steerq_test_total", "site", "compile")
	// Same name with label pairs in any vararg order resolves to the same
	// instance: identity is (name, sorted labels).
	b := r.Counter("steerq_test_total", "site", "compile")
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	a.Inc()
	b.Add(4)
	if got := a.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	other := r.Counter("steerq_test_total", "site", "exec")
	if other == a {
		t.Fatal("different labels returned the same counter")
	}
	if got := other.Value(); got != 0 {
		t.Fatalf("fresh counter value = %d, want 0", got)
	}
}

func TestLabelSortingNormalizesIdentity(t *testing.T) {
	r := obs.New()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed metric identity; labels must sort by key")
	}
	a.Inc()
	snap := r.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("got %d counters, want 1", len(snap.Counters))
	}
	ls := snap.Counters[0].Labels
	if len(ls) != 2 || ls[0].Key != "a" || ls[1].Key != "b" {
		t.Fatalf("labels not sorted by key: %+v", ls)
	}
}

// TestLookupAllocatesNothing: finding an existing counter, gauge or
// histogram — the hot path of every instrumented call site — allocates
// nothing with 0, 2 or 4 label pairs given out of key order, and a new
// series still files its labels sorted, under the identity any order of
// them finds.
func TestLookupAllocatesNothing(t *testing.T) {
	r := obs.New()
	bounds := []float64{1, 2}
	for _, kv := range [][]string{nil, {"site", "exec", "kind", "fail"}, {"z", "4", "b", "2", "y", "3", "a", "1"}} {
		c, g, h := r.Counter("c_total", kv...), r.Gauge("g", kv...), r.Histogram("h", bounds, kv...)
		if allocs := testing.AllocsPerRun(100, func() {
			if r.Counter("c_total", kv...) != c || r.Gauge("g", kv...) != g || r.Histogram("h", bounds, kv...) != h {
				t.Fatal("lookup returned another instance")
			}
		}); allocs != 0 {
			t.Errorf("%d label pairs: lookups allocate %v, want 0", len(kv)/2, allocs)
		}
	}
	r.Counter("new_total", "z", "4", "b", "2", "y", "3", "a", "1").Inc()
	if r.Counter("new_total", "a", "1", "y", "3", "b", "2", "z", "4").Value() != 1 {
		t.Fatal("the same labels in another order name another series")
	}
	for _, c := range r.Snapshot().Counters {
		if c.Name != "new_total" {
			continue
		}
		var keys []string
		for _, l := range c.Labels {
			keys = append(keys, l.Key)
		}
		if !reflect.DeepEqual(keys, []string{"a", "b", "y", "z"}) {
			t.Fatalf("new series filed labels %v, want sorted by key", keys)
		}
		return
	}
	t.Fatal("new series missing from the snapshot")
}

func TestTrailingOddLabelKeyKept(t *testing.T) {
	r := obs.New()
	r.Counter("m", "k").Inc()
	snap := r.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("got %d counters, want 1", len(snap.Counters))
	}
	ls := snap.Counters[0].Labels
	if len(ls) != 1 || ls[0].Key != "k" || ls[0].Value != "" {
		t.Fatalf("trailing odd key not kept with empty value: %+v", ls)
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := obs.New()
	g := r.Gauge("steerq_test_gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge value = %v, want 2.5", got)
	}
	if again := r.Gauge("steerq_test_gauge"); again != g {
		t.Fatal("same identity returned distinct gauges")
	}
	n := 1.0
	r.GaugeFunc("steerq_test_fn", func() float64 { return n })
	// Re-registering replaces the function.
	r.GaugeFunc("steerq_test_fn", func() float64 { return n * 10 })
	n = 3
	snap := r.Snapshot()
	vals := map[string]float64{}
	for _, g := range snap.Gauges {
		vals[g.Name] = g.Value
	}
	if vals["steerq_test_gauge"] != 2.5 {
		t.Fatalf("materialized gauge = %v, want 2.5", vals["steerq_test_gauge"])
	}
	if vals["steerq_test_fn"] != 30 {
		t.Fatalf("gauge func = %v, want 30 (evaluated at snapshot, replaced fn)", vals["steerq_test_fn"])
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := obs.New()
	h := r.Histogram("steerq_test_hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 50, 1000, -2} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(snap.Histograms))
	}
	p := snap.Histograms[0]
	if !reflect.DeepEqual(p.Bounds, []float64{1, 10, 100}) {
		t.Fatalf("bounds = %v", p.Bounds)
	}
	// Buckets are v <= bound: {-2, 0.5, 1} | {1.5} | {50} | overflow {1000}.
	want := []uint64{3, 1, 1, 1}
	if !reflect.DeepEqual(p.Counts, want) {
		t.Fatalf("counts = %v, want %v", p.Counts, want)
	}
	if p.Count != 6 {
		t.Fatalf("count = %d, want 6", p.Count)
	}
	if p.Sum != 0.5+1+1.5+50+1000-2 {
		t.Fatalf("sum = %v", p.Sum)
	}
	// Bounds are fixed at first registration.
	if again := r.Histogram("steerq_test_hist", []float64{7}); again != h {
		t.Fatal("same identity returned distinct histograms")
	}
}

// TestHistogramConcurrentMergeDeterministic is the package's core property:
// the snapshot of a histogram is a pure function of the observation multiset,
// independent of which goroutines observed what in which order.
func TestHistogramConcurrentMergeDeterministic(t *testing.T) {
	values := make([]float64, 4000)
	for i := range values {
		values[i] = float64(i%97) * 0.25
	}
	run := func(workers int) obs.HistogramPoint {
		r := obs.New()
		h := r.Histogram("h", []float64{1, 5, 20})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(values); i += workers {
					h.Observe(values[i])
				}
			}(w)
		}
		wg.Wait()
		return r.Snapshot().Histograms[0]
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("histogram snapshot differs by worker count:\n 1: %+v\n 8: %+v", serial, parallel)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *obs.Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c != nil || c.Value() != 0 {
		t.Fatal("nil registry must hand out nil no-op counters")
	}
	g := r.Gauge("x")
	g.Set(1)
	if g != nil || g.Value() != 0 {
		t.Fatal("nil registry must hand out nil no-op gauges")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	h := r.Histogram("x", []float64{1})
	h.Observe(5)
	if h != nil {
		t.Fatal("nil registry must hand out nil no-op histograms")
	}
	ctx := context.Background()
	ctx2, sp := r.StartSpan(ctx, "stage", "tag")
	if ctx2 != ctx || sp != nil {
		t.Fatal("nil registry StartSpan must return ctx unchanged and a nil span")
	}
	sp.End(obs.OutcomeOK)
	sp.EndErr(nil)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestSpanNestingAndOutcomes(t *testing.T) {
	now := time.Unix(0, 0)
	r := obs.NewWithClock(func() time.Time { return now })
	ctx, parent := r.StartSpan(context.Background(), "pipeline.recompile", "job1")
	now = now.Add(5 * time.Millisecond)
	_, child := r.StartSpan(ctx, "pipeline.span_search", "job1")
	now = now.Add(2 * time.Millisecond)
	child.EndErr(nil)
	now = now.Add(time.Millisecond)
	parent.End(obs.OutcomeError)
	parent.End(obs.OutcomeOK) // second End must not record

	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(snap.Spans))
	}
	// Sorted by path: parent "pipeline.recompile(job1)" first.
	p, c := snap.Spans[0], snap.Spans[1]
	if p.Path != "pipeline.recompile(job1)" || p.Outcome != obs.OutcomeError {
		t.Fatalf("parent span = %+v", p)
	}
	if p.DurationNs != int64(8*time.Millisecond) {
		t.Fatalf("parent duration = %d", p.DurationNs)
	}
	if c.Path != "pipeline.recompile(job1)/pipeline.span_search(job1)" {
		t.Fatalf("child path = %q", c.Path)
	}
	if c.Parent != "pipeline.recompile(job1)" || c.Outcome != obs.OutcomeOK {
		t.Fatalf("child span = %+v", c)
	}
	if c.DurationNs != int64(2*time.Millisecond) {
		t.Fatalf("child duration = %d", c.DurationNs)
	}
}

func TestErrOutcome(t *testing.T) {
	if obs.ErrOutcome(nil) != obs.OutcomeOK {
		t.Fatal("nil error must classify ok")
	}
	if obs.ErrOutcome(context.Canceled) != obs.OutcomeError {
		t.Fatal("non-nil error must classify error")
	}
}

func TestFrozenClockZeroDurations(t *testing.T) {
	r := obs.NewWithClock(obs.FrozenClock())
	_, sp := r.StartSpan(context.Background(), "s", "")
	sp.End(obs.OutcomeOK)
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].DurationNs != 0 {
		t.Fatalf("frozen clock span = %+v, want zero duration", snap.Spans)
	}
	if snap.Spans[0].Path != "s" {
		t.Fatalf("tagless span path = %q, want %q", snap.Spans[0].Path, "s")
	}
}

func TestClockFromEnv(t *testing.T) {
	t.Setenv(obs.VClockEnv, "1")
	c := obs.ClockFromEnv()
	if !c().Equal(time.Unix(0, 0)) {
		t.Fatal("STEERQ_VCLOCK set: clock must be frozen at the zero instant")
	}
	t.Setenv(obs.VClockEnv, "")
	w := obs.ClockFromEnv()
	if d := time.Since(w()); d < -time.Minute || d > time.Minute {
		t.Fatalf("unset STEERQ_VCLOCK: clock must read wall time, got %v away", d)
	}
}

func TestSnapshotOrderingDeterministic(t *testing.T) {
	build := func(order []int) obs.Snapshot {
		r := obs.NewWithClock(obs.FrozenClock())
		ops := []func(){
			func() { r.Counter("b_total").Add(2) },
			func() { r.Counter("a_total", "k", "v2").Inc() },
			func() { r.Counter("a_total", "k", "v1").Inc() },
			func() { r.Gauge("g").Set(1) },
			func() { r.Histogram("h", []float64{1}).Observe(0.5) },
			func() {
				_, sp := r.StartSpan(context.Background(), "z", "t")
				sp.End(obs.OutcomeOK)
			},
			func() {
				_, sp := r.StartSpan(context.Background(), "a", "t")
				sp.End(obs.OutcomeOK)
			},
		}
		for _, i := range order {
			ops[i]()
		}
		return r.Snapshot()
	}
	fwd := build([]int{0, 1, 2, 3, 4, 5, 6})
	rev := build([]int{6, 5, 4, 3, 2, 1, 0})
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("snapshot depends on recording order:\nfwd %+v\nrev %+v", fwd, rev)
	}
	if fwd.Counters[0].Name != "a_total" || fwd.Counters[0].Labels[0].Value != "v1" {
		t.Fatalf("counters not sorted by (name, labels): %+v", fwd.Counters)
	}
	if fwd.Spans[0].Stage != "a" {
		t.Fatalf("spans not sorted by path: %+v", fwd.Spans)
	}
}

func TestStandaloneCounter(t *testing.T) {
	c := obs.NewCounter("steerq_cache_hits_total")
	c.Add(7)
	if c.Value() != 7 {
		t.Fatalf("standalone counter = %d, want 7", c.Value())
	}
}
