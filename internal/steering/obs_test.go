package steering_test

import (
	"sync"
	"testing"

	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

// TestCompileCacheSetObsCarriesCounts: re-pointing the cache's counters into
// a registry must not lose events already counted, and the registry's view
// must track subsequent activity.
func TestCompileCacheSetObsCarriesCounts(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	p := steering.NewPipeline(h, xrand.New(3).Derive("cache-obs"))
	p.MaxCandidates = 20
	p.Workers = 2
	p.Cache = steering.NewCompileCache()
	job := steerJob(t, cat)
	fingerprintJob(t, job)
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	before := p.Cache.Stats()
	if before.Misses == 0 {
		t.Fatal("first pass recorded no misses; test is vacuous")
	}

	reg := obs.New()
	p.Cache.SetObs(reg, "workload", "test")
	snap := reg.Snapshot()
	vals := map[string]uint64{}
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["steerq_cache_hits_total"] != before.Hits || vals["steerq_cache_misses_total"] != before.Misses {
		t.Fatalf("SetObs dropped prior counts: registry %v, cache %+v", vals, before)
	}

	// A second pass over the same job hits the cache; both views must agree.
	if _, err := p.Recompile(job); err != nil {
		t.Fatal(err)
	}
	after := p.Cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatal("second pass recorded no hits; test is vacuous")
	}
	snap = reg.Snapshot()
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["steerq_cache_hits_total"] != after.Hits || vals["steerq_cache_misses_total"] != after.Misses {
		t.Fatalf("registry view diverged after SetObs: registry %v, cache %+v", vals, after)
	}
	var entries float64
	for _, g := range snap.Gauges {
		if g.Name == "steerq_cache_entries" {
			entries = g.Value
		}
	}
	if int(entries) != after.Entries {
		t.Fatalf("entries gauge = %v, cache has %d", entries, after.Entries)
	}
}

// TestCompileCacheObsConcurrent hammers an obs-wired cache from many
// goroutines; under -race this is the regression test for the migration from
// bespoke atomic fields to obs counters.
func TestCompileCacheObsConcurrent(t *testing.T) {
	fp := faults.DefaultPlan(77)
	cache := steering.NewCompileCache()
	cache.SetObs(obs.New(), "workload", "test")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := analyzeFaulty(t, 2, cache, fp)
			if a == nil {
				t.Error("analysis returned nil")
			}
		}()
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("hammer recorded no cache traffic; test is vacuous")
	}
}
