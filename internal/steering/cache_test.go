package steering_test

import (
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/obs"
	"steerq/internal/steering"
)

// cfp builds a distinct synthetic job fingerprint.
func cfp(n uint64) steering.JobFingerprint {
	return steering.JobFingerprint{Template: n + 1, Instance: n * 31, Inputs: n * 7}
}

// cval builds a compile value whose footprint is {bit}, so distinct bits give
// distinct classes under one job.
func cval(bit int, cost float64) steering.CompileValue {
	return steering.CompileValue{Cost: cost, Footprint: bitvec.New(bit), OK: true}
}

// TestCompileCacheCapacityBound: a bounded cache never holds more entries
// than its capacity, however many distinct (job, class) pairs churn through
// it, and every displacement is counted as an eviction.
func TestCompileCacheCapacityBound(t *testing.T) {
	const capacity = 8
	c := steering.NewCompileCacheWithCapacity(capacity)
	const inserts = 100
	for i := 0; i < inserts; i++ {
		c.Put(cfp(uint64(i)), bitvec.New(i%bitvec.Width), cval(i%bitvec.Width, float64(i)))
		if st := c.Stats(); st.Entries > capacity {
			t.Fatalf("after insert %d: %d entries exceed capacity %d", i, st.Entries, capacity)
		}
	}
	st := c.Stats()
	if st.Entries != capacity {
		t.Fatalf("entries = %d, want full cache at capacity %d", st.Entries, capacity)
	}
	if st.Evictions != inserts-capacity {
		t.Fatalf("evictions = %d, want %d", st.Evictions, inserts-capacity)
	}
	if st.Capacity != capacity {
		t.Fatalf("Stats().Capacity = %d, want %d", st.Capacity, capacity)
	}
}

// TestCompileCacheUnboundedNeverEvicts: the default cache keeps everything —
// PR-to-PR behavior of experiments that rely on full retention is unchanged.
func TestCompileCacheUnboundedNeverEvicts(t *testing.T) {
	c := steering.NewCompileCache()
	for i := 0; i < 500; i++ {
		c.Put(cfp(uint64(i)), bitvec.New(i%bitvec.Width), cval(i%bitvec.Width, float64(i)))
	}
	st := c.Stats()
	if st.Entries != 500 || st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

// cacheTrace runs a fixed churn workload against a fresh bounded cache and
// returns the hit/miss pattern of a final probe sweep plus the stats.
func cacheTrace(capacity int) (string, steering.CacheStats) {
	c := steering.NewCompileCacheWithCapacity(capacity)
	// One job, many classes; interleaved re-reads give some slots a second
	// chance so the CLOCK actually exercises its reference bits.
	fp := cfp(1)
	for i := 0; i < 40; i++ {
		bit := i % 20
		cfg := bitvec.New(bit)
		if _, ok := c.Get(fp, cfg); !ok {
			c.Put(fp, cfg, cval(bit, float64(bit)))
		}
		if i%3 == 0 {
			c.Get(fp, bitvec.New(0)) // keep class 0 referenced
		}
	}
	pattern := ""
	for bit := 0; bit < 20; bit++ {
		if _, ok := c.Get(fp, bitvec.New(bit)); ok {
			pattern += "H"
		} else {
			pattern += "m"
		}
	}
	return pattern, c.Stats()
}

// TestCompileCacheEvictionDeterministic: the segmented CLOCK's survivor set
// is a pure function of the operation sequence — identical runs agree on
// every survivor, every counter, and the second-chance bit demonstrably
// protects the hot entry.
func TestCompileCacheEvictionDeterministic(t *testing.T) {
	p1, s1 := cacheTrace(6)
	p2, s2 := cacheTrace(6)
	if p1 != p2 {
		t.Fatalf("survivor pattern diverged between identical runs: %s vs %s", p1, p2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged between identical runs: %+v vs %+v", s1, s2)
	}
	if s1.Evictions == 0 {
		t.Fatal("trace never evicted; determinism check is vacuous")
	}
	if p1[0] != 'H' {
		t.Fatalf("repeatedly referenced class 0 was evicted (pattern %s); second chance broken", p1)
	}
	if s1.Entries > 6 {
		t.Fatalf("entries %d exceed capacity", s1.Entries)
	}
}

// TestCompileCacheEntriesGaugeConsistency: the registry gauge tracks the
// live entry count through insert and evict churn, and hits + misses always
// equals the number of lookups issued.
func TestCompileCacheEntriesGaugeConsistency(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	const capacity = 4
	c := steering.NewCompileCacheWithCapacity(capacity)
	c.SetObs(reg, "workload", "evict-test")

	lookups := 0
	get := func(fp steering.JobFingerprint, cfg bitvec.Vector) bool {
		lookups++
		_, ok := c.Get(fp, cfg)
		return ok
	}
	for i := 0; i < 30; i++ {
		bit := i % 10
		fp := cfp(uint64(i % 3))
		cfg := bitvec.New(bit)
		if !get(fp, cfg) {
			c.Put(fp, cfg, cval(bit, float64(i)))
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != uint64(lookups) {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups)
	}
	if st.Entries > capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, capacity)
	}

	gauge := -1.0
	var hits, misses, evictions uint64
	snap := reg.Snapshot()
	for _, g := range snap.Gauges {
		if g.Name == "steerq_cache_entries" {
			gauge = g.Value
		}
	}
	for _, cp := range snap.Counters {
		switch cp.Name {
		case "steerq_cache_hits_total":
			hits = cp.Value
		case "steerq_cache_misses_total":
			misses = cp.Value
		case "steerq_cache_evictions_total":
			evictions = cp.Value
		}
	}
	if gauge != float64(st.Entries) {
		t.Fatalf("entries gauge %v != Stats().Entries %d", gauge, st.Entries)
	}
	if hits != st.Hits || misses != st.Misses || evictions != st.Evictions {
		t.Fatalf("registry counters (h=%d m=%d e=%d) disagree with Stats() %+v",
			hits, misses, evictions, st)
	}
	if evictions == 0 {
		t.Fatal("churn produced no evictions; gauge consistency check is weak")
	}
}

// TestCompileCacheProjectedHits: a configuration that differs from the
// writer's only outside the footprint must hit, and the hit must be counted
// as projected; agreeing configurations hit without the projected count.
func TestCompileCacheProjectedHits(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(9)
	writer := bitvec.New(3, 50)          // bit 50 is outside the footprint
	c.Put(fp, writer, cval(3, 7))        // footprint {3}
	if _, ok := c.Get(fp, writer); !ok { // exact writer config
		t.Fatal("writer config missed")
	}
	if st := c.Stats(); st.Projected != 0 {
		t.Fatalf("exact hit counted as projected: %+v", st)
	}
	probe := bitvec.New(3, 99, 200) // agrees on bit 3, differs elsewhere
	v, ok := c.Get(fp, probe)
	if !ok || v.Cost != 7 {
		t.Fatalf("projected probe missed: ok=%v v=%+v", ok, v)
	}
	if st := c.Stats(); st.Projected != 1 {
		t.Fatalf("projected hit not counted: %+v", st)
	}
	if _, ok := c.Get(fp, bitvec.New(99)); ok { // disagrees on footprint bit 3
		t.Fatal("footprint-bit disagreement hit anyway")
	}
}

// TestCompileCacheBoundedReuse: bounding the cache must not break the
// footprint-projected reuse path as long as the working set fits.
func TestCompileCacheBoundedReuse(t *testing.T) {
	c := steering.NewCompileCacheWithCapacity(32)
	fp := cfp(2)
	for bit := 0; bit < 16; bit++ {
		c.Put(fp, bitvec.New(bit), cval(bit, float64(bit)))
	}
	for bit := 0; bit < 16; bit++ {
		v, ok := c.Get(fp, bitvec.New(bit, 100+bit))
		if !ok || v.Cost != float64(bit) {
			t.Fatalf("bit %d: bounded cache lost a fitting entry (ok=%v v=%+v)", bit, ok, v)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Projected != 16 {
		t.Fatalf("unexpected stats for fitting working set: %+v", st)
	}
}

// TestCompileCachePutRefreshKeepsCount: re-putting an existing class must
// not grow the entry count or the eviction clock.
func TestCompileCachePutRefreshKeepsCount(t *testing.T) {
	c := steering.NewCompileCacheWithCapacity(4)
	fp := cfp(3)
	for i := 0; i < 10; i++ {
		c.Put(fp, bitvec.New(5), cval(5, float64(i)))
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("refreshing one class churned the cache: %+v", st)
	}
	if v, ok := c.Get(fp, bitvec.New(5)); !ok || v.Cost != 9 {
		t.Fatalf("refresh did not keep the latest value: %+v", v)
	}
}

// sanity check that cfp stays collision-free over the range the tests use.
func TestCfpDistinct(t *testing.T) {
	seen := map[steering.JobFingerprint]int{}
	for i := 0; i < 600; i++ {
		fp := cfp(uint64(i))
		if j, dup := seen[fp]; dup {
			t.Fatalf("cfp(%d) == cfp(%d): %+v", i, j, fp)
		}
		seen[fp] = i
	}
}
