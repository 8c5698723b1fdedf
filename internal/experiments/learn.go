package experiments

import (
	"fmt"
	"io"
	"sort"

	"steerq/internal/learning"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// LearningRun is the shared substrate of Table 5 and Figure 8: per-job-group
// datasets, trained models and test-set evaluations (§7.4).
type LearningRun struct {
	Groups []LearnedGroup
}

// LearnedGroup is one job group's learning outcome.
type LearnedGroup struct {
	Index int
	Size  int // total jobs collected
	Arms  int
	Eval  learning.Evaluation
}

// Learning reproduces §7: it selects the largest rule-signature job groups of
// the workload across a window of days, discovers candidate arms with the
// pipeline on a few base jobs, collects runtimes of every arm for every job,
// trains a per-group model and evaluates it on the held-out test split.
func (r *Runner) Learning(name string, days, nGroups int) (*LearningRun, error) {
	h := r.Harness(name)
	var jobs []*workload.Job
	for d := 0; d < days; d++ {
		jobs = append(jobs, r.Day(name, d)...)
	}
	p := r.Pipeline(name)
	groups, err := p.Grouper().Group(jobs)
	if err != nil {
		return nil, err
	}

	// Keep groups whose jobs are worth optimizing (the paper's groups run
	// thousands of seconds): median default runtime above a floor, enough
	// members for a 40/20/40 split to mean something.
	minGroup, minMedian := r.Cfg.LearnMinGroup, r.Cfg.LearnMinMedianSec
	var selected []*steering.JobGroup
	for _, g := range groups {
		if len(selected) == nGroups {
			break
		}
		if len(g.Jobs) < minGroup {
			continue
		}
		med := r.medianDefaultRuntime(name, g.Jobs)
		if med < minMedian {
			continue
		}
		selected = append(selected, g)
	}

	run := &LearningRun{}
	rnd := xrand.New(r.Cfg.Seed).Derive("learning", name)
	for gi, g := range selected {
		arms, err := learning.CandidateArms(p, g.Jobs, 3, 10)
		if err != nil {
			return nil, err
		}
		members := g.Jobs
		if len(members) > 250 {
			members = members[:250]
		}
		ds := learning.Collect(h, g.Signature, members, arms)
		if len(ds.Examples) < 20 {
			continue
		}
		split := learning.NewSplit(len(ds.Examples), rnd.Derive("split", fmt.Sprint(gi)))
		model := learning.Train(ds, split, learning.DefaultTrainOptions(), rnd.Derive("model", fmt.Sprint(gi)))
		ev := learning.Evaluate(model, ds, split.Test)
		run.Groups = append(run.Groups, LearnedGroup{
			Index: gi + 1,
			Size:  len(ds.Examples),
			Arms:  len(arms),
			Eval:  ev,
		})
		r.logf("learning group %d: %d jobs, %d arms, %d test jobs", gi+1, len(ds.Examples), len(arms), len(ev.PerJob))
	}
	return run, nil
}

func (r *Runner) medianDefaultRuntime(name string, jobs []*workload.Job) float64 {
	var rts []float64
	for _, j := range jobs {
		t := r.DefaultTrial(name, j)
		if t.Err == nil {
			rts = append(rts, t.Metrics.RuntimeSec)
		}
	}
	if len(rts) == 0 {
		return 0
	}
	sort.Float64s(rts)
	return rts[len(rts)/2]
}

// Table5 renders the learning run as Table 5: mean/90P/99P runtimes per group
// under the best (oracle), default and learned policies.
type Table5 struct {
	Run *LearningRun
}

// Render prints the table.
func (t *Table5) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 5: runtimes (seconds) per job group under Best/Default/Learned\n")
	fmt.Fprintf(w, "%-9s", "")
	for _, g := range t.Run.Groups {
		fmt.Fprintf(w, " | group %d (n=%d, K=%d)           ", g.Index, g.Size, g.Arms)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s", "")
	for range t.Run.Groups {
		fmt.Fprintf(w, " | %9s %9s %9s", "Mean", "90P", "99P")
	}
	fmt.Fprintln(w)
	row := func(label string, get func(learning.JobOutcome) float64) {
		fmt.Fprintf(w, "%-9s", label)
		for _, g := range t.Run.Groups {
			s := g.Eval.Summarize(get)
			fmt.Fprintf(w, " | %9.0f %9.0f %9.0f", s.Mean, s.P90, s.P99)
		}
		fmt.Fprintln(w)
	}
	row("Best", func(o learning.JobOutcome) float64 { return o.Best })
	row("Default", func(o learning.JobOutcome) float64 { return o.Default })
	row("Learned", func(o learning.JobOutcome) float64 { return o.Learned })
}

// Figure8 renders the learning run as Figure 8: per-test-job runtime change
// (seconds and percent) of the learned choice versus the default.
type Figure8 struct {
	Run *LearningRun
}

// Render prints per-group job series.
func (f *Figure8) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: learned model vs default per unseen test job (negative = faster)\n")
	for _, g := range f.Run.Groups {
		fmt.Fprintf(w, "job group %d:\n", g.Index)
		improved, regressed, same := 0, 0, 0
		for _, o := range g.Eval.PerJob {
			d := o.Learned - o.Default
			pct := 0.0
			if o.Default > 0 {
				pct = 100 * d / o.Default
			}
			switch {
			case pct < -1:
				improved++
			case pct > 1:
				regressed++
			default:
				same++
			}
			fmt.Fprintf(w, "  %-14s arm=%d  d=%+8.0fs  (%+6.1f%%)\n", o.Job.ID, o.Arm, d, pct)
		}
		fmt.Fprintf(w, "  summary: %d improved, %d regressed, %d unchanged\n", improved, regressed, same)
	}
}
