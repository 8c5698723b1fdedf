package steering

import (
	"context"
	"fmt"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
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

// Grouper assigns jobs to rule-signature job groups by compiling them under
// the default configuration.
type Grouper struct {
	Harness *abtest.Harness
	// compiles, when non-nil (Pipeline.Grouper hands over the pipeline's
	// cache), is probed before and filled after every default compile, so a
	// warm pass groups without compiling and a cold one seeds each job's
	// default class. It is the Grouper's only memo across calls.
	compiles *CompileCache
}

// NewGrouper returns a Grouper over the harness's optimizer with no memo:
// every DefaultSignature compiles, and every Group compiles each distinct
// fingerprint it is handed once.
func NewGrouper(h *abtest.Harness) *Grouper {
	return &Grouper{Harness: h}
}

// Grouper returns a Grouper over the pipeline's harness whose default
// compiles go through the pipeline's cache, so grouping fingerprinted jobs
// again — or asking for a grouped job's DefaultSignature — compiles nothing.
func (p *Pipeline) Grouper() *Grouper {
	return &Grouper{Harness: p.Harness, compiles: p.Cache}
}

// DefaultSignature compiles (or, through the compile cache, recalls) the
// job's default rule signature. Only the signature is kept, so the plan-less
// compile skips building a physical DAG that would be dropped on the next
// line.
func (g *Grouper) DefaultSignature(job *workload.Job) (bitvec.Vector, error) {
	cfg := g.Harness.Opt.Rules.DefaultConfig()
	v, _, err := g.compiles.compile(job, cfg, false, func() (*cascades.Result, error) {
		return g.Harness.Opt.OptimizeCost(job.Root, cfg)
	})
	if err != nil {
		return bitvec.Vector{}, fmt.Errorf("steering: default signature of %s: %w", job.ID, err)
	}
	return v.Signature, nil
}

// Group partitions jobs into job groups, ordered by descending size (ties by
// signature hex for determinism). Jobs are deduplicated serially by
// JobFingerprint, the first of each fingerprint is compiled concurrently on
// up to Harness.Workers workers, and the jobs are grouped serially, so the
// groups — and the error, the first failing job's in input order — are the
// same at any worker count. A job without a fingerprint is never
// deduplicated: each compiles on its own.
func (g *Grouper) Group(jobs []*workload.Job) ([]*JobGroup, error) {
	fresh := make([]*workload.Job, 0, len(jobs))
	// of[i] is the index in fresh of the job whose signature jobs[i] takes.
	of := make([]int, len(jobs))
	first := make(map[JobFingerprint]int, len(jobs))
	for i, j := range jobs {
		fp, ok := jobFingerprint(j)
		if k, seen := first[fp]; ok && seen {
			of[i] = k
			continue
		}
		if ok {
			first[fp] = len(fresh)
		}
		of[i] = len(fresh)
		fresh = append(fresh, j)
	}
	sigs, err := par.Map(g.Harness.Workers, fresh, func(_ int, j *workload.Job) (bitvec.Vector, error) {
		return g.DefaultSignature(j)
	})
	if err != nil {
		return nil, err
	}
	byKey := make(map[bitvec.Key]*JobGroup)
	for i, j := range jobs {
		sig := sigs[of[i]]
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
		return out[i].Signature.Compare(out[j].Signature) < 0
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

// Compare runs j under its default and, if that succeeds, under cfg: both
// Pipeline.Trial, so a run whose class the cache holds a plan for executes it
// without compiling. PctChange is set only when both runs succeed.
func Compare(p *Pipeline, cfg bitvec.Vector, j *workload.Job) Comparison {
	ctx := context.Background()
	c := Comparison{Job: j, Default: p.Trial(ctx, j, p.Harness.Opt.Rules.DefaultConfig(), DefaultTag(j.ID), nil)}
	if c.Default.Err != nil {
		return c
	}
	c.New = p.Trial(ctx, j, cfg, j.ID+"/extrapolated", nil)
	if def := c.Default.Metrics.RuntimeSec; c.New.Err == nil && def > 0 {
		c.PctChange = 100 * (c.New.Metrics.RuntimeSec - def) / def
	}
	return c
}

// Extrapolate applies a discovered configuration to each job (typically the
// members of the base job's group across days, §6.4) and compares it against
// the default execution (Compare). Jobs that fail under either configuration
// are skipped.
func Extrapolate(p *Pipeline, cfg bitvec.Vector, jobs []*workload.Job) []Comparison {
	out := make([]Comparison, 0, len(jobs))
	for _, j := range jobs {
		if c := Compare(p, cfg, j); c.Default.Err == nil && c.New.Err == nil {
			out = append(out, c)
		}
	}
	return out
}
