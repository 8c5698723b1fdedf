// Package workload generates the three production-like workloads the paper
// evaluates on (Table 1): daily arrivals of recurring SCOPE jobs drawn from a
// pool of templates over a shared data lake.
//
// The real workloads are proprietary (95K/15K/40K daily jobs sampled from
// Microsoft clusters); the generators reproduce their *distributional*
// structure at a configurable scale (default 1:100):
//
//   - recurring templates, each arriving one-to-many times per day with
//     varied predicate constants and daily-evolving inputs (§3.1.1);
//   - job shapes mixing relational operators, UNION ALL and user-defined
//     PROCESS/REDUCE operators, tens to hundreds of operators per job;
//   - heavy-tailed input sizes, so ~10% of jobs run longer than five minutes
//     and consume ~90% of the containers (Figure 2a);
//   - hot keys, correlated filter columns and opaque UDOs — the error
//     classes that make steering profitable.
package workload

import (
	"fmt"

	"steerq/internal/bitvec"
	"steerq/internal/catalog"
	"steerq/internal/plan"
	"steerq/internal/scopeql"
	"steerq/internal/xrand"
)

// Job is one instantiated job: a script bound against the workload's catalog,
// plus the identifiers Table 1 counts.
type Job struct {
	// ID is unique per instance, e.g. "A/d3/j17".
	ID       string
	Workload string
	Day      int
	Template int
	Script   string
	Root     *plan.Node

	// TemplateHash identifies the recurring template (structure minus
	// variable values, §3.1.1); InstanceHash additionally covers the
	// constants; InputsHash identifies the set of input streams read.
	TemplateHash uint64
	InstanceHash uint64
	InputsHash   uint64

	// Hints lists rule IDs the submitting customer toggles away from the
	// default — "rule flags are already available and often used by
	// customers" (§3.3). Empty for most jobs. Consumers build the job's
	// submitted configuration by flipping these bits on the default.
	Hints []int
}

// Workload is a generated workload: a catalog plus a template pool.
type Workload struct {
	Name      string
	Cat       *catalog.Catalog
	Templates []*Template

	// JobsPerDay is the expected number of daily arrivals.
	JobsPerDay int

	seed uint64
}

// Template is one recurring job template.
type Template struct {
	ID    int
	Shape string
	// build renders the script for one instance; the constants vary per
	// (day, instance) while the structure is frozen.
	build func(r *xrand.Source) string
	// weight is the template's relative daily arrival rate; a few
	// templates recur heavily (the paper observes rule-signature groups
	// with ~1000 jobs/day), most arrive once or twice.
	weight float64
	// hints are the customer rule toggles frozen into the template's
	// submissions (most templates have none).
	hints []int
}

// Day instantiates the workload's jobs for one day, deterministically.
func (w *Workload) Day(day int) []*Job {
	r := xrand.New(w.seed).Derive("day", fmt.Sprint(day))
	weights := make([]float64, len(w.Templates))
	for i, t := range w.Templates {
		weights[i] = t.weight
	}
	n := w.JobsPerDay
	jobs := make([]*Job, 0, n)
	for j := 0; j < n; j++ {
		ti := r.Pick(weights)
		t := w.Templates[ti]
		script := t.build(r.Derive("job", fmt.Sprint(j)))
		root, err := scopeql.Compile(script, w.Cat)
		if err != nil {
			// Generator and dialect are co-designed; a bind failure is a
			// generator bug worth failing loudly on.
			// steerq:allow-panic — see above; every template binds in tests.
			panic(fmt.Sprintf("workload %s day %d template %d: %v\nscript:\n%s", w.Name, day, t.ID, err, script))
		}
		jobs = append(jobs, &Job{
			ID:           fmt.Sprintf("%s/d%d/j%d", w.Name, day, j),
			Workload:     w.Name,
			Day:          day,
			Template:     t.ID,
			Script:       script,
			Root:         root,
			TemplateHash: plan.TemplateHash(root),
			InstanceHash: plan.InstanceHash(root),
			InputsHash:   plan.InputsHash(root),
			Hints:        t.hints,
		})
	}
	return jobs
}

// Stats summarizes a day of jobs the way Table 1 does.
type Stats struct {
	Jobs            int
	UniqueTemplates int
	UniqueInputs    int
}

// DayStats computes Table 1-style counts for a slice of jobs.
func DayStats(jobs []*Job) Stats {
	t := make(map[uint64]bool)
	in := make(map[uint64]bool)
	for _, j := range jobs {
		t[j.TemplateHash] = true
		in[j.InputsHash] = true
	}
	return Stats{Jobs: len(jobs), UniqueTemplates: len(t), UniqueInputs: len(in)}
}

// SubmittedConfig returns the rule configuration the job is submitted with:
// the default configuration with the job's customer hints toggled.
func (j *Job) SubmittedConfig(def bitvec.Vector) bitvec.Vector {
	cfg := def
	for _, id := range j.Hints {
		cfg.Assign(id, !def.Get(id))
	}
	return cfg
}
