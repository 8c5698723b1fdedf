package steering

import (
	"sync"
	"sync/atomic"

	"steerq/internal/bitvec"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/workload"
)

// JobFingerprint identifies one recurring job instance for caching.
//
// The production follow-up to the paper (QO-Advisor) keeps the recompilation
// fan-out affordable by never compiling the same recurring input twice; this
// fingerprint is how the reproduction gets the same effect. Template
// identifies the recurring job structure, Instance fingerprints the day's
// bound constants (recurring arrivals vary predicate literals, §3.1.1), and
// Inputs fingerprints the set of streams read that day — together they pin
// exactly the facts the estimated-statistics optimizer consumes, so a cached
// {cost, signature} is bit-identical to recompiling.
type JobFingerprint struct {
	Template uint64
	Instance uint64
	Inputs   uint64
}

// CompileValue is the cached outcome of one compilation. The candidate stage
// and the Grouper consume — and store — only the estimated cost and the rule
// signature; a plan is kept for the few configurations per job that were
// executed (see Plan), which keeps a multi-day cache small.
type CompileValue struct {
	Cost      float64
	Signature bitvec.Vector
	// Footprint is the compile's decision footprint (cascades.Result): the
	// rule IDs whose enabled-bit the search read. It doubles as the cache's
	// index: entries are stored under the configuration *projected onto the
	// footprint*, so any configuration agreeing on those bits — even one
	// differing on irrelevant rules — finds the entry.
	Footprint bitvec.Vector
	// OK is false when the configuration did not compile (cascades.ErrNoPlan
	// — the only per-configuration failure the optimizer produces). Failures
	// are cached too: recurring jobs re-probe the same dead configurations,
	// and the footprint of a failed search is just as sharing-sound as a
	// successful one's.
	OK bool
	// Plan is the physical plan, set only by an executed trial (the default
	// and at most ExecutePerJob selected configurations per analysed job), so
	// re-executing the configuration needs no compile: extraction is as
	// deterministic per footprint class as cost and signature are, and a
	// Result.Plan never points into a compile arena (cascades/scratch.go).
	// Executions only read it. It leaves the cache with its slot.
	Plan *plan.PhysNode
}

// cacheShards is the fixed shard count. Power of two so the shard pick is a
// mask. Sharding is by job fingerprint alone, so all entries of one job live
// in one shard. Measured, kept (EXPERIMENTS.md "Prove-or-delete"): one lock in
// place of the 64 lost 7 of 8 alternating discover_cold pairs on two cores
// (4,771 → 4,545 jobs/s, −4.7 %) at unchanged cpu_ms_per_op — concurrent
// group analyses waiting on each other, not working.
const cacheShards = 64

// footprintEntry holds every cached outcome sharing one decision footprint,
// keyed by the writer configuration projected onto that footprint.
type footprintEntry struct {
	foot bitvec.Vector
	vals map[bitvec.Key]*cacheSlot
}

// cacheSlot is one cached outcome.
type cacheSlot struct {
	val CompileValue
	// writer is the full (unprojected) key of the configuration that wrote
	// the entry; a lookup whose full key differs found the entry through
	// footprint projection alone (counted as a projected hit).
	writer bitvec.Key
}

// jobEntry indexes one job's footprint entries in insertion order. Lookups
// scan the footprints oldest-first; compiles of one job read overlapping
// rule sets, so the list stays short (often length one).
type jobEntry struct {
	foots []*footprintEntry
}

// lookup returns the slot of the first footprint entry, in insertion order,
// that holds cfg's projection onto its footprint, or nil.
func (je *jobEntry) lookup(cfg bitvec.Vector) *cacheSlot {
	for _, fe := range je.foots {
		if slot, ok := fe.vals[cfg.And(fe.foot).Key()]; ok {
			return slot
		}
	}
	return nil
}

// entry returns the job's entry for foot, appending an empty one if needed.
func (je *jobEntry) entry(foot bitvec.Vector) *footprintEntry {
	for _, fe := range je.foots {
		if fe.foot.Equal(foot) {
			return fe
		}
	}
	fe := &footprintEntry{foot: foot, vals: make(map[bitvec.Key]*cacheSlot)}
	je.foots = append(je.foots, fe)
	return fe
}

type cacheShard struct {
	mu   sync.RWMutex
	jobs map[JobFingerprint]*jobEntry
}

// Cache metric names. The cache always counts through *obs.Counter — a
// standalone set by default, registry-owned ones after SetObs — so reads
// are atomic everywhere and wiring observability re-points rather than
// duplicates.
const (
	cacheHitsMetric     = "steerq_cache_hits_total"
	cacheMissesMetric   = "steerq_cache_misses_total"
	cacheEntriesMetric  = "steerq_cache_entries"
	cacheProjHitsMetric = "steerq_cache_projected_hits_total"
)

// CompileCache is a sharded, concurrency-safe memo of compilation outcomes
// indexed by (job fingerprint, footprint-projected configuration). A single
// cache is shared across days and experiments of one workload and never
// evicts; one job's cache traffic is serial (an analysis runs on one
// goroutine), so its contents and counters are the same at any worker count.
//
// Lookups project the probing configuration onto each stored footprint of
// the job, so recurring templates hit even when the probing configuration
// differs from the writer's on rules the compile never consulted. A hit
// whose full configuration differs from the writer's is additionally
// counted as a projected hit. A trial's probe needs the plan: finding the
// class without one is counted as a miss, since the caller compiles anyway.
type CompileCache struct {
	shards    [cacheShards]cacheShard
	entries   atomic.Int64
	hits      *obs.Counter
	misses    *obs.Counter
	projected *obs.Counter
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	c := &CompileCache{
		hits:      obs.NewCounter(cacheHitsMetric),
		misses:    obs.NewCounter(cacheMissesMetric),
		projected: obs.NewCounter(cacheProjHitsMetric),
	}
	for i := range c.shards {
		c.shards[i].jobs = make(map[JobFingerprint]*jobEntry)
	}
	return c
}

// SetObs re-points the cache's counters at registry-owned instruments (with
// the given label pairs, e.g. "workload", "A") and registers an entry-count
// gauge. Counts accumulated before the call carry over. Call it before the
// cache is shared across goroutines: the counter fields themselves are not
// synchronized, only their values are.
func (c *CompileCache) SetObs(reg *obs.Registry, labels ...string) {
	if c == nil || reg == nil {
		return
	}
	hits := reg.Counter(cacheHitsMetric, labels...)
	misses := reg.Counter(cacheMissesMetric, labels...)
	projected := reg.Counter(cacheProjHitsMetric, labels...)
	hits.Add(c.hits.Value())
	misses.Add(c.misses.Value())
	projected.Add(c.projected.Value())
	c.hits, c.misses, c.projected = hits, misses, projected
	reg.GaugeFunc(cacheEntriesMetric, func() float64 {
		return float64(c.entries.Load())
	}, labels...)
}

// shard maps a job fingerprint to its shard.
func (c *CompileCache) shard(fp JobFingerprint) *cacheShard {
	h := fp.Template ^ fp.Instance*0x9e3779b97f4a7c15 ^ fp.Inputs*0x85ebca6b
	return &c.shards[h%cacheShards]
}

// lookup scans the job's footprint entries in insertion order for one whose
// projection of cfg is present; projected reports a hit whose writer was a
// different full configuration.
func (s *cacheShard) lookup(fp JobFingerprint, cfg bitvec.Vector) (v CompileValue, ok, projected bool) {
	je := s.jobs[fp]
	if je == nil {
		return CompileValue{}, false, false
	}
	slot := je.lookup(cfg)
	if slot == nil {
		return CompileValue{}, false, false
	}
	return slot.val, true, slot.writer != cfg.Key()
}

// Get returns the cached value for compiling the fingerprinted job under
// cfg, matching by footprint projection. The hit/miss (and projected-hit)
// counters are updated; a nil receiver reports a miss, so call sites need
// no nil guards.
func (c *CompileCache) Get(fp JobFingerprint, cfg bitvec.Vector) (CompileValue, bool) {
	return c.get(fp, cfg, false)
}

// get is Get, hitting only on an entry that carries a plan when needPlan.
func (c *CompileCache) get(fp JobFingerprint, cfg bitvec.Vector, needPlan bool) (CompileValue, bool) {
	if c == nil {
		return CompileValue{}, false
	}
	s := c.shard(fp)
	s.mu.RLock()
	v, ok, projected := s.lookup(fp, cfg)
	s.mu.RUnlock()
	ok = ok && (!needPlan || v.Plan != nil)
	if ok {
		c.hits.Inc()
		if projected {
			c.projected.Inc()
		}
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// Put stores the outcome of compiling the fingerprinted job under cfg. The
// entry is indexed by cfg projected onto v.Footprint. Concurrent Puts of
// the same projection are benign: compilation is deterministic, so both
// writers carry identical values.
func (c *CompileCache) Put(fp JobFingerprint, cfg bitvec.Vector, v CompileValue) {
	if c == nil {
		return
	}
	s := c.shard(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	je := s.jobs[fp]
	if je == nil {
		je = &jobEntry{}
		s.jobs[fp] = je
	}
	fe := je.entry(v.Footprint)
	k := cfg.And(v.Footprint).Key()
	if slot, ok := fe.vals[k]; ok {
		slot.val = v // deterministic recompile of the same class; refresh
		return
	}
	fe.vals[k] = &cacheSlot{val: v, writer: cfg.Key()}
	c.entries.Add(1)
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Projected uint64
	Entries   int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters and entry count. Safe on a nil cache.
func (c *CompileCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Projected: c.projected.Value(),
		Entries:   int(c.entries.Load()),
	}
}

// jobFingerprint extracts a job's cache fingerprint, and reports whether
// the job is cacheable at all. Ad-hoc jobs (e.g. scripts compiled by the
// CLI) carry no fingerprints; caching them under an all-zero fingerprint
// would alias every script onto one entry, so they bypass the cache.
func jobFingerprint(job *workload.Job) (JobFingerprint, bool) {
	if job.TemplateHash == 0 && job.InstanceHash == 0 && job.InputsHash == 0 {
		return JobFingerprint{}, false
	}
	return JobFingerprint{
		Template: job.TemplateHash,
		Instance: job.InstanceHash,
		Inputs:   job.InputsHash,
	}, true
}
