package experiments

import (
	"context"
	"fmt"
	"io"

	"steerq/internal/steering"
)

// ExtensionResults covers the two §8 future-work directions implemented in
// internal/steering: feedback-guided iterative search and rule-independence
// discovery.
type ExtensionResults struct {
	Workload string

	// Iterative search vs the one-shot pipeline, per job: best runtime
	// found under an equal execution budget.
	Iterative []IterativeRow

	// Independence probing, per job: span size, interaction groups, and
	// the configuration-space reduction.
	Independence []IndependenceRow
}

// IterativeRow compares one-shot and feedback-guided search on one job.
type IterativeRow struct {
	Job           string
	DefaultRT     float64
	OneShotBest   float64
	IterativeBest float64
}

// IndependenceRow summarizes one job's independence probe.
type IndependenceRow struct {
	Job          string
	SpanSize     int
	Groups       int
	NaiveSpace   float64
	PartSpace    float64
	Compilations int
}

// Extensions runs both future-work experiments over `jobs` long-running jobs.
func (r *Runner) Extensions(name string, day, jobs int) (*ExtensionResults, error) {
	p := r.Pipeline(name)
	rnd := r.sampleRand(name, "extensions")
	long := r.LongJobs(name, day)
	idx := rnd.Sample(len(long), jobs)
	out := &ExtensionResults{Workload: name}
	// One-shot baseline budget: 12 executions. Set once — the pipeline is
	// shared by the workers below.
	p.ExecutePerJob = 12
	its := make([]*IterativeRow, len(idx))
	// inds[n] is set only with its[n]: independence probing runs only after
	// the iterative comparison succeeds.
	inds := make([]*IndependenceRow, len(idx))
	_ = p.AnalyzeEachCtx(context.Background(), pick(long, idx), func(n int, a *steering.Analysis, err error) {
		if err != nil {
			return
		}
		oneShot := a.BestConfig(steering.MetricRuntime).Metrics.RuntimeSec

		// Iterative: the same 12 executions split into 3 feedback rounds.
		res, err := steering.IterativeSearch(p, a)
		if err != nil {
			return
		}
		iterative := a.Default.Metrics.RuntimeSec
		if res.Best != nil {
			iterative = res.Best.Runtime
		}
		its[n] = &IterativeRow{
			Job:           a.Job.ID,
			DefaultRT:     a.Default.Metrics.RuntimeSec,
			OneShotBest:   oneShot,
			IterativeBest: iterative,
		}

		ind, err := steering.ProbeIndependence(p, a)
		if err != nil {
			return
		}
		naive, part := ind.SearchSpace(a.Span.Count())
		inds[n] = &IndependenceRow{
			Job:          a.Job.ID,
			SpanSize:     a.Span.Count(),
			Groups:       len(ind.Groups),
			NaiveSpace:   naive,
			PartSpace:    part,
			Compilations: ind.Compilations,
		}
	})
	for n, it := range its {
		if it != nil {
			out.Iterative = append(out.Iterative, *it)
		}
		if ind := inds[n]; ind != nil {
			out.Independence = append(out.Independence, *ind)
		}
	}
	return out, nil
}

// Render prints both comparisons.
func (e *ExtensionResults) Render(w io.Writer) {
	fmt.Fprintf(w, "Extension (§8): feedback-guided iterative search vs one-shot pipeline, workload %s\n", e.Workload)
	fmt.Fprintf(w, "  %-14s %10s %13s %15s\n", "job", "default", "one-shot best", "iterative best")
	itWins, osWins := 0, 0
	for _, r := range e.Iterative {
		fmt.Fprintf(w, "  %-14s %9.0fs %12.0fs %14.0fs\n", r.Job, r.DefaultRT, r.OneShotBest, r.IterativeBest)
		if r.IterativeBest < r.OneShotBest*0.99 {
			itWins++
		} else if r.OneShotBest < r.IterativeBest*0.99 {
			osWins++
		}
	}
	fmt.Fprintf(w, "  iterative better on %d jobs, one-shot on %d of %d (equal execution budget)\n",
		itWins, osWins, len(e.Iterative))

	fmt.Fprintf(w, "\nExtension (§8): rule-independence discovery, workload %s\n", e.Workload)
	fmt.Fprintf(w, "  %-14s %6s %8s %14s %14s %9s\n", "job", "span", "groups", "naive space", "partitioned", "compiles")
	for _, r := range e.Independence {
		fmt.Fprintf(w, "  %-14s %6d %8d %14.0f %14.0f %9d\n",
			r.Job, r.SpanSize, r.Groups, r.NaiveSpace, r.PartSpace, r.Compilations)
	}
}
