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

// TestCompileCacheUnboundedNeverEvicts: the cache keeps everything —
// experiments rely on full retention, and every entry stays readable.
func TestCompileCacheUnboundedNeverEvicts(t *testing.T) {
	c := steering.NewCompileCache()
	for i := 0; i < 500; i++ {
		c.Put(cfp(uint64(i)), bitvec.New(i%bitvec.Width), cval(i%bitvec.Width, float64(i)))
	}
	if st := c.Stats(); st.Entries != 500 {
		t.Fatalf("cache dropped entries: %+v", st)
	}
	for i := 0; i < 500; i++ {
		if v, ok := c.Get(cfp(uint64(i)), bitvec.New(i%bitvec.Width)); !ok || v.Cost != float64(i) {
			t.Fatalf("entry %d: ok=%v v=%+v", i, ok, v)
		}
	}
}

// TestCompileCacheEntriesGaugeConsistency: the registry gauge tracks the
// live entry count through insert and re-read churn, and hits + misses always
// equals the number of lookups issued.
func TestCompileCacheEntriesGaugeConsistency(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	c := steering.NewCompileCache()
	c.SetObs(reg, "workload", "gauge-test")

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
	// 30 probes cycle 10 classes over 3 jobs: every (job, class) pair is
	// distinct, so each is inserted once and never hit.
	if st.Entries != 30 || st.Hits != 0 {
		t.Fatalf("stats after churn: %+v, want 30 entries and no hits", st)
	}
	if !get(cfp(0), bitvec.New(0)) {
		t.Fatal("re-read of an inserted class missed")
	}
	st = c.Stats()

	gauge := -1.0
	var hits, misses uint64
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
		}
	}
	if gauge != float64(st.Entries) {
		t.Fatalf("entries gauge %v != Stats().Entries %d", gauge, st.Entries)
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("registry counters (h=%d m=%d) disagree with Stats() %+v", hits, misses, st)
	}
}

// TestCompileCacheProjectedHits: a configuration that differs from the
// writer's only outside the footprint must hit and count as a hit, one that
// disagrees on a footprint bit must miss, an empty footprint matches every
// configuration, and footprints are scanned in insertion order.
func TestCompileCacheProjectedHits(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(9)
	writer := bitvec.New(3, 50)          // bit 50 is outside the footprint
	c.Put(fp, writer, cval(3, 7))        // footprint {3}
	if _, ok := c.Get(fp, writer); !ok { // exact writer config
		t.Fatal("writer config missed")
	}
	probe := bitvec.New(3, 99, 200) // agrees on bit 3, differs elsewhere
	v, ok := c.Get(fp, probe)
	if !ok || v.Cost != 7 {
		t.Fatalf("projected probe missed: ok=%v v=%+v", ok, v)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("projected hit not counted: %+v", st)
	}
	if _, ok := c.Get(fp, bitvec.New(99)); ok { // disagrees on footprint bit 3
		t.Fatal("footprint-bit disagreement hit anyway")
	}

	// An empty footprint matches whatever the earlier footprint {3} does not.
	c.Put(fp, bitvec.New(100), steering.CompileValue{Cost: 2})
	if v, ok := c.Get(fp, bitvec.New(1)); !ok || v.Cost != 2 {
		t.Fatalf("empty footprint should match any config, got ok=%v v=%+v", ok, v)
	}
	if v, ok := c.Get(fp, bitvec.New(3)); !ok || v.Cost != 7 {
		t.Fatalf("insertion order violated: got %+v", v)
	}
}

// TestCompileCachePutRefreshKeepsCount: re-putting an existing class must
// not grow the entry count.
func TestCompileCachePutRefreshKeepsCount(t *testing.T) {
	c := steering.NewCompileCache()
	fp := cfp(3)
	for i := 0; i < 10; i++ {
		c.Put(fp, bitvec.New(5), cval(5, float64(i)))
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("refreshing one class grew the cache: %+v", st)
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
