package steering

import (
	"fmt"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/par"
	"steerq/internal/workload"
)

// JobGroup is a rule-signature job group (Definition 6.2): the set of jobs
// whose *default* rule signature maps to the same bit vector. Job groups cut
// across templates and inputs — they capture "the code path the query takes
// inside the optimizer", which is why one discovered configuration tends to
// transfer within a group (§6.4).
type JobGroup struct {
	Signature bitvec.Vector
	Jobs      []*workload.Job
}

// GroupKey identifies a job group.
func (g *JobGroup) GroupKey() bitvec.Key { return g.Signature.Key() }

// Grouper assigns jobs to rule-signature job groups by compiling them under
// the default configuration.
type Grouper struct {
	Harness *abtest.Harness
	// cache maps instance hashes to signatures so recurring instances skip
	// recompilation.
	cache map[uint64]bitvec.Vector
	// compiles, when non-nil (BuildBundle hands over its pipeline's cache),
	// is probed before and filled after every default compile, so a warm pass
	// groups without compiling and a cold one seeds each job's default class.
	compiles *CompileCache
}

// NewGrouper returns a Grouper over the harness's optimizer.
func NewGrouper(h *abtest.Harness) *Grouper {
	return &Grouper{Harness: h, cache: make(map[uint64]bitvec.Vector)}
}

// DefaultSignature compiles (or recalls) the job's default rule signature.
func (g *Grouper) DefaultSignature(job *workload.Job) (bitvec.Vector, error) {
	if sig, ok := g.cache[job.InstanceHash]; ok {
		return sig, nil
	}
	sig, err := g.compileSignature(job, g.Harness.Opt.Rules.DefaultConfig())
	if err == nil {
		g.cache[job.InstanceHash] = sig
	}
	return sig, err
}

// compileSignature compiles job under cfg, the default configuration (built
// once per Group: on a warm pass building it would cost more than the probe).
// Only the signature is kept, so the plan-less compile skips building a
// physical DAG that would be dropped on the next line.
func (g *Grouper) compileSignature(job *workload.Job, cfg bitvec.Vector) (bitvec.Vector, error) {
	fp, cacheable := jobFingerprint(job)
	cacheable = cacheable && g.compiles != nil
	if cacheable {
		if v, ok := g.compiles.Get(fp, cfg); ok && v.OK {
			return v.Signature, nil
		}
	}
	res, err := g.Harness.Opt.OptimizeCost(job.Root, cfg)
	if err != nil {
		return bitvec.Vector{}, fmt.Errorf("steering: default signature of %s: %w", job.ID, err)
	}
	if cacheable {
		g.compiles.Put(fp, cfg, CompileValue{Cost: res.Cost, Signature: res.Signature, Footprint: res.Footprint, OK: true})
	}
	return res.Signature, nil
}

// Group partitions jobs into job groups, ordered by descending size (ties by
// signature hex for determinism). The instances the Grouper has not seen are
// deduplicated serially, compiled concurrently on up to Harness.Workers
// workers and grouped serially, so the groups — and the error, the first
// failing job's in input order — are the same at any worker count.
func (g *Grouper) Group(jobs []*workload.Job) ([]*JobGroup, error) {
	fresh := make([]*workload.Job, 0, len(jobs))
	seen := make(map[uint64]bool, len(jobs))
	for _, j := range jobs {
		if _, ok := g.cache[j.InstanceHash]; !ok && !seen[j.InstanceHash] {
			seen[j.InstanceHash] = true
			fresh = append(fresh, j)
		}
	}
	cfg := g.Harness.Opt.Rules.DefaultConfig()
	sigs, err := par.Map(g.Harness.Workers, fresh, func(_ int, j *workload.Job) (bitvec.Vector, error) {
		return g.compileSignature(j, cfg)
	})
	if err != nil {
		return nil, err
	}
	for i, j := range fresh {
		g.cache[j.InstanceHash] = sigs[i]
	}
	byKey := make(map[bitvec.Key]*JobGroup)
	for _, j := range jobs {
		sig := g.cache[j.InstanceHash]
		k := sig.Key()
		grp, ok := byKey[k]
		if !ok {
			grp = &JobGroup{Signature: sig}
			byKey[k] = grp
		}
		grp.Jobs = append(grp.Jobs, j)
	}
	out := make([]*JobGroup, 0, len(byKey))
	for _, grp := range byKey {
		out = append(out, grp)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Jobs) != len(out[j].Jobs) {
			return len(out[i].Jobs) > len(out[j].Jobs)
		}
		return out[i].Signature.Hex() < out[j].Signature.Hex()
	})
	return out, nil
}

// Comparison is the outcome of applying a configuration to one job versus its
// default.
type Comparison struct {
	Job     *workload.Job
	Default abtest.Trial
	New     abtest.Trial
	// PctChange is the runtime percentage change from default (negative is
	// faster).
	PctChange float64
}

// Extrapolate applies a discovered configuration to each job (typically the
// members of the base job's group across days, §6.4) and compares against the
// default execution. Jobs that fail to compile under cfg are skipped.
func Extrapolate(h *abtest.Harness, cfg bitvec.Vector, jobs []*workload.Job) []Comparison {
	out := make([]Comparison, 0, len(jobs))
	for _, j := range jobs {
		def := h.RunConfig(j.Root, h.Opt.Rules.DefaultConfig(), j.Day, j.ID+"/default")
		if def.Err != nil {
			continue
		}
		alt := h.RunConfig(j.Root, cfg, j.Day, j.ID+"/extrapolated")
		if alt.Err != nil {
			continue
		}
		pct := 0.0
		if def.Metrics.RuntimeSec > 0 {
			pct = 100 * (alt.Metrics.RuntimeSec - def.Metrics.RuntimeSec) / def.Metrics.RuntimeSec
		}
		out = append(out, Comparison{Job: j, Default: def, New: alt, PctChange: pct})
	}
	return out
}
