package steering

import (
	"errors"
	"sync"
	"sync/atomic"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/exec"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/workload"
	"steerq/internal/xrand"
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
	// Executions only read it. The cache keeps it with one ground truth
	// (exec.Prepared), prepared on the plan's first re-execution of a day,
	// so every later run of the plan that day draws only its noise (see
	// Prepared). Both leave the cache with its entry.
	Plan *plan.PhysNode

	// kept holds Plan's prepared ground truth on a value the cache returns;
	// Put ignores it.
	kept *keptPlan
}

// Prepared returns the ground truth the cache keeps for v's plan if it fits
// day on x's cluster — the one every re-execution of the plan on that day
// runs — or nil when no re-execution of that day prepared it. It prepares
// nothing.
func (v CompileValue) Prepared(x *exec.Executor, day int) *exec.Prepared {
	if v.kept == nil {
		return nil
	}
	v.kept.mu.Lock()
	defer v.kept.mu.Unlock()
	if pr := v.kept.truth; pr != nil && pr.Fits(x, day) {
		return pr
	}
	return nil
}

// keptPlan is a trial plan the cache keeps and the ground truth of its last
// re-executed day. A plan executed once, as every plan of a cold pass is, has
// none; a re-execution on a day the truth does not fit prepares that day's
// and replaces it. No workload re-executes one plan on two days (no job
// fingerprint recurs across days), so one truth serves every re-execution,
// and the truths a cache retains are bounded by its kept plans.
type keptPlan struct {
	plan  *plan.PhysNode
	mu    sync.Mutex
	truth *exec.Prepared
}

// prepared returns k's plan's ground truth for day on x's cluster, preparing
// and keeping it when the kept one does not fit; tag names the execution if
// plan checking rejects the plan. Concurrent first calls prepare once.
func (k *keptPlan) prepared(x *exec.Executor, day int, tag string) *exec.Prepared {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.truth == nil || !k.truth.Fits(x, day) {
		k.truth = x.Prepare(k.plan, day, tag)
	}
	return k.truth
}

// cacheShards is the fixed shard count. Power of two so the shard pick is a
// mask. Sharding is by job fingerprint alone, so all entries of one job live
// in one shard. Measured, kept (EXPERIMENTS.md "Prove-or-delete"): one lock in
// place of the 64 lost 7 of 8 alternating discover_cold pairs on two cores
// (4,771 → 4,545 jobs/s, −4.7 %) at unchanged cpu_ms_per_op — concurrent
// group analyses waiting on each other, not working.
const cacheShards = 64

// classKey indexes one of a job's cached outcomes: the position of its
// footprint in the job's footprint list and the writer configuration
// projected onto that footprint.
type classKey struct {
	class int
	proj  bitvec.Key
}

// outcome is a cached CompileValue without its footprint, which the key's
// class already names.
type outcome struct {
	cost float64
	sig  bitvec.Vector
	ok   bool
	plan *keptPlan
}

// listKey names one candidate list of a job: the seed of the stream it was
// drawn from, M and the span. CandidateConfigs draws from a stream derived
// for the call, so the seed names the whole draw sequence, and with M and
// the span it pins the list.
type listKey struct {
	seed uint64
	m    int
	span bitvec.Vector
}

// candList is a job's candidate configurations under one listKey and their
// clean resolution once an analysis found one.
//
// res is written at most once, by the first analysis that resolved every
// candidate without a faulted compile, and read by every later analysis of
// the list instead of probing the cache candidate by candidate. Analyses of
// one job may run concurrently; a writer that loses the race holds an
// identical resolution, since every outcome it read is deterministic.
type candList struct {
	key  listKey
	cfgs []bitvec.Vector
	res  atomic.Pointer[resolution]
}

// resolution is what resolving a candidate list through the cache gives when
// no compile faulted: the successful candidates in candidate order, exactly
// sized (cap == len, so a caller's append copies rather than writing into a
// kept list) and shared read-only by every analysis that reads it, the
// number of candidates the optimizer found no plan for, and the successes'
// stable cost order (see costOrder), which selection walks.
type resolution struct {
	cands  []Candidate
	noplan int
	order  []int32
}

// newResolution builds the resolution of successes cands and noplan no-plan
// verdicts, computing the cost order once.
func newResolution(cands []Candidate, noplan int) *resolution {
	cands = exactly(cands)
	return &resolution{cands: cands, noplan: noplan, order: costOrder(cands)}
}

// exactly returns s, copied to an array of its length when it has spare
// capacity, so a slice the cache keeps holds no unused tail and a caller's
// append to it copies.
func exactly[T any](s []T) []T {
	if len(s) < cap(s) {
		return append(make([]T, 0, len(s)), s...)
	}
	return s
}

// jobEntry holds one job's cached outcomes: its distinct footprints in
// insertion order and one map over all of them, so a new footprint class
// costs a list entry, not a map of its own, while a job's lookups stay in
// one small table. Lookups scan the footprints oldest-first; compiles of one
// job read overlapping rule sets, so the list stays short (often length
// one). list is the candidate list of the job's last analysis: an analysis
// under another listKey (pipeline seed, M or span) replaces it, since no
// workload analyses one job under two keys. Most entries are never analysed
// — the Grouper caches every job's default compile — so their list stays
// nil.
type jobEntry struct {
	foots []bitvec.Vector
	vals  map[classKey]outcome
	list  *candList
}

// lookup returns the outcome of the first of the job's footprints, in
// insertion order, under which cfg's projection is present.
func (je *jobEntry) lookup(cfg bitvec.Vector) (CompileValue, bool) {
	for i, foot := range je.foots {
		if o, ok := je.vals[classKey{i, cfg.And(foot).Key()}]; ok {
			v := CompileValue{Cost: o.cost, Signature: o.sig, Footprint: foot, OK: o.ok, kept: o.plan}
			if o.plan != nil {
				v.Plan = o.plan.plan
			}
			return v, true
		}
	}
	return CompileValue{}, false
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
	cacheHitsMetric    = "steerq_cache_hits_total"
	cacheMissesMetric  = "steerq_cache_misses_total"
	cacheEntriesMetric = "steerq_cache_entries"
)

// CompileCache is a sharded, concurrency-safe memo of compilation outcomes
// indexed by (job fingerprint, footprint-projected configuration). A single
// cache is shared across days and experiments of one workload and never
// evicts; one job's cache traffic is serial (an analysis runs on one
// goroutine), so its contents and counters are the same at any worker count.
// Next to a job's outcomes it keeps the candidate list of the job's last
// analysis (see candidates) and, once an analysis resolved the list without
// a faulted compile, that resolution, so a re-analysis neither compiles nor
// samples nor probes the cache candidate by candidate. The resolution's candidates
// are shared read-only by every analysis that reads them. The lists are not
// counted as entries; reading a kept resolution counts one hit per
// candidate, as probing each would. A kept trial plan carries the ground
// truth its first re-execution of a day prepared (see CompileValue.Plan),
// which later re-executions that day run without simulating the plan again.
//
// Lookups project the probing configuration onto each stored footprint of
// the job, so recurring templates hit even when the probing configuration
// differs from the writer's on rules the compile never consulted. That makes
// the cache the one footprint index of the steering layer: a candidate whose
// class an earlier compile of the job decided is a hit. A trial's probe needs
// the plan: finding the class without one is counted as a miss, since the
// caller compiles anyway.
type CompileCache struct {
	shards  [cacheShards]cacheShard
	entries atomic.Int64
	hits    *obs.Counter
	misses  *obs.Counter
	// candProbes counts the candidates of kept lists resolved one probe at
	// a time (see CandidateProbes).
	candProbes atomic.Uint64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	c := &CompileCache{
		hits:   obs.NewCounter(cacheHitsMetric),
		misses: obs.NewCounter(cacheMissesMetric),
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
	hits.Add(c.hits.Value())
	misses.Add(c.misses.Value())
	c.hits, c.misses = hits, misses
	reg.GaugeFunc(cacheEntriesMetric, func() float64 {
		return float64(c.entries.Load())
	}, labels...)
}

// shard maps a job fingerprint to its shard.
func (c *CompileCache) shard(fp JobFingerprint) *cacheShard {
	h := fp.Template ^ fp.Instance*0x9e3779b97f4a7c15 ^ fp.Inputs*0x85ebca6b
	return &c.shards[h%cacheShards]
}

// entry returns the fingerprinted job's entry, adding an empty one if the
// shard has none. The caller holds the write lock.
func (s *cacheShard) entry(fp JobFingerprint) *jobEntry {
	je := s.jobs[fp]
	if je == nil {
		je = &jobEntry{vals: make(map[classKey]outcome)}
		s.jobs[fp] = je
	}
	return je
}

// list returns the fingerprinted job's candidate list if it is kept under
// key, or nil.
func (s *cacheShard) list(fp JobFingerprint, key listKey) *candList {
	if je := s.jobs[fp]; je != nil && je.list != nil && je.list.key == key {
		return je.list
	}
	return nil
}

// lookup returns the fingerprinted job's outcome under cfg.
func (s *cacheShard) lookup(fp JobFingerprint, cfg bitvec.Vector) (CompileValue, bool) {
	je := s.jobs[fp]
	if je == nil {
		return CompileValue{}, false
	}
	return je.lookup(cfg)
}

// Get returns the cached value for compiling the fingerprinted job under
// cfg, matching by footprint projection. The hit/miss counters are updated;
// a nil receiver reports a miss, so call sites need no nil guards.
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
	v, ok := s.lookup(fp, cfg)
	s.mu.RUnlock()
	ok = ok && (!needPlan || v.Plan != nil)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// compile is the one compile path of the steering layer — the Grouper's
// default signatures, span probes, candidates and trials alike: it looks up
// the job's outcome under cfg (a hit must carry a plan when withPlan), runs
// compile on a miss, and writes back what it yields. That is a validated
// success, with its plan only when withPlan, or the optimizer's own no-plan
// verdict with its footprint. A faulted compile — injected failure, timeout,
// corrupted plan — is never written. hit reports that compile did not run.
// A no-plan outcome, cached or fresh, surfaces as cascades.ErrNoPlan. A nil
// cache, or a job without a fingerprint, always compiles and writes nothing.
func (c *CompileCache) compile(job *workload.Job, cfg bitvec.Vector, withPlan bool, compile func() (*cascades.Result, error)) (v CompileValue, hit bool, err error) {
	fp, cacheable := jobFingerprint(job)
	cacheable = cacheable && c != nil
	if cacheable {
		if v, ok := c.get(fp, cfg, withPlan); ok {
			if !v.OK {
				return v, true, cascades.ErrNoPlan
			}
			return v, true, nil
		}
	}
	res, err := compile()
	switch {
	case err == nil:
		v = CompileValue{Cost: res.Cost, Signature: res.Signature, Footprint: res.Footprint, OK: true}
		if withPlan {
			v.Plan = res.Plan
		}
	case res != nil && errors.Is(err, cascades.ErrNoPlan):
		v.Footprint = res.Footprint
	default:
		return CompileValue{}, false, err
	}
	if cacheable {
		c.Put(fp, cfg, v)
	}
	return v, false, err
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
	je := s.entry(fp)
	class := 0
	for class < len(je.foots) && !je.foots[class].Equal(v.Footprint) {
		class++
	}
	if class == len(je.foots) {
		je.foots = append(je.foots, v.Footprint)
	}
	k := classKey{class, cfg.And(v.Footprint).Key()}
	if _, ok := je.vals[k]; !ok {
		c.entries.Add(1)
	}
	// A deterministic recompile of a known class refreshes it.
	o := outcome{cost: v.Cost, sig: v.Signature, ok: v.OK}
	if v.Plan != nil {
		o.plan = &keptPlan{plan: v.Plan}
	}
	je.vals[k] = o
}

// sampleCandidates is the sampler candidates runs on a miss: CandidateConfigs,
// which tests wrap to count its runs.
var sampleCandidates = CandidateConfigs

// candidates returns the job's candidate list for span, m and the stream r —
// CandidateConfigs(span, rs, m, r) — sampling only when the job's kept list
// is not under (r's seed, m, span), and whether the list is kept in the
// cache. A sampled list replaces the job's kept one. The key is sound
// because r is derived afresh for the call, so its seed names its whole draw
// sequence; rs is the optimizer's, which every outcome of the cache already
// assumes. A kept list's configurations are exactly sized and shared:
// callers only read them. A nil cache, or a job without a fingerprint,
// samples on every call and returns a list of the call's own, which nothing
// else reads. Lists are never counted as hits, misses or entries.
func (c *CompileCache) candidates(job *workload.Job, span bitvec.Vector, rs *cascades.RuleSet, m int, r *xrand.Source) (l *candList, kept bool) {
	fp, cacheable := jobFingerprint(job)
	if c == nil || !cacheable {
		return &candList{cfgs: sampleCandidates(span, rs, m, r)}, false
	}
	key := listKey{seed: r.Seed(), m: m, span: span}
	s := c.shard(fp)
	s.mu.RLock()
	l = s.list(fp, key)
	s.mu.RUnlock()
	if l != nil {
		return l, true
	}
	cfgs := exactly(sampleCandidates(span, rs, m, r))
	s.mu.Lock()
	defer s.mu.Unlock()
	if l = s.list(fp, key); l != nil {
		// A concurrent analysis of the same job kept an identical list first.
		return l, true
	}
	l = &candList{key: key, cfgs: cfgs}
	s.entry(fp).list = l
	return l, true
}

// CandidateProbes returns how many candidates of kept candidate lists were
// resolved by probing the cache one at a time: every candidate of a list's
// first clean analysis, and of each analysis before it. An analysis that
// reads the list's kept resolution adds none, so a warm re-pass leaves it
// unchanged. Safe on a nil cache.
func (c *CompileCache) CandidateProbes() uint64 {
	if c == nil {
		return 0
	}
	return c.candProbes.Load()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
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
		Hits:    c.hits.Value(),
		Misses:  c.misses.Value(),
		Entries: int(c.entries.Load()),
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
