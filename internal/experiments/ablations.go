package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"

	"steerq/internal/bitvec"
	"steerq/internal/par"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// AblationRandomVsGuided reproduces the "when the cost model is completely
// wrong" check of §6.2: for the same jobs, execute K configurations chosen by
// the cost model (cheapest recompiled plans) versus K configurations drawn
// uniformly from the candidate pool, and compare the best runtime each policy
// finds. The paper executed several random candidates for twenty jobs and
// found only one case where a random pick beat the guided ones — evidence
// that the estimated cost, although not comparable across configurations, is
// still a useful plan-quality signal.
type AblationRandomVsGuided struct {
	Workload string
	Rows     []RandomVsGuidedRow
}

// RandomVsGuidedRow is one job's outcome under both policies.
type RandomVsGuidedRow struct {
	Job        string
	DefaultRT  float64
	GuidedBest float64 // best runtime among the K cheapest-by-cost configs
	RandomBest float64 // best runtime among K uniformly chosen configs
}

// RandomVsGuided runs the ablation over `jobs` analyzed jobs of the workload.
func (r *Runner) RandomVsGuided(name string, day, jobs, k int) (*AblationRandomVsGuided, error) {
	p := r.Pipeline(name)
	rnd := r.sampleRand(name, "ablation-rvg")
	long := r.LongJobs(name, day)
	idx := rnd.Sample(len(long), jobs)
	out := &AblationRandomVsGuided{Workload: name}
	// The pipeline is shared across workers below, so its selection width is
	// set once up front rather than mutated per job.
	p.ExecutePerJob = k
	rows := make([]*RandomVsGuidedRow, len(idx))
	// Per-job randomness comes from streams derived by job ID, not from rnd's
	// own sequence, so the fan-out order cannot change any draw.
	_ = p.AnalyzeEachCtx(context.Background(), pick(long, idx), func(n int, a *steering.Analysis, err error) {
		if err != nil || len(a.Candidates) == 0 {
			return
		}
		job := a.Job
		// Guided: the pipeline's standard selection.
		guided := a.BestConfig(steering.MetricRuntime).Metrics.RuntimeSec

		// Random: K uniform draws from the same candidate pool.
		randomBest := a.Default.Metrics.RuntimeSec
		seen := map[bitvec.Key]bool{a.Default.Signature.Key(): true}
		picked := 0
		for _, ci := range rnd.Derive("job", job.ID).Perm(len(a.Candidates)) {
			if picked >= k {
				break
			}
			c := a.Candidates[ci]
			if seen[c.Signature.Key()] {
				continue
			}
			seen[c.Signature.Key()] = true
			picked++
			t := p.Trial(context.Background(), job, c.Config, fmt.Sprintf("%s/rand%d", job.ID, picked), nil)
			if t.Err == nil && t.Metrics.RuntimeSec < randomBest {
				randomBest = t.Metrics.RuntimeSec
			}
		}
		rows[n] = &RandomVsGuidedRow{
			Job:        job.ID,
			DefaultRT:  a.Default.Metrics.RuntimeSec,
			GuidedBest: guided,
			RandomBest: randomBest,
		}
	})
	for _, row := range rows {
		if row != nil {
			out.Rows = append(out.Rows, *row)
		}
	}
	return out, nil
}

// Render prints the comparison.
func (a *AblationRandomVsGuided) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation (§6.2): cost-guided vs random configuration selection, workload %s\n", a.Workload)
	fmt.Fprintf(w, "  %-14s %10s %12s %12s\n", "job", "default", "guided-best", "random-best")
	guidedWins, randomWins := 0, 0
	for _, r := range a.Rows {
		fmt.Fprintf(w, "  %-14s %9.0fs %11.0fs %11.0fs\n", r.Job, r.DefaultRT, r.GuidedBest, r.RandomBest)
		if r.GuidedBest < r.RandomBest*0.99 {
			guidedWins++
		} else if r.RandomBest < r.GuidedBest*0.99 {
			randomWins++
		}
	}
	fmt.Fprintf(w, "  guided better on %d jobs, random better on %d of %d\n", guidedWins, randomWins, len(a.Rows))
}

// AblationSpanSearch quantifies what the job span (Definition 5.1) buys: the
// same randomized search run over the full set of 219 non-required rules
// instead of the span wastes most of its budget on configurations that do not
// change the plan at all.
type AblationSpanSearch struct {
	Workload string
	Jobs     int
	// Per policy: fraction of candidates that compiled, fraction of
	// compiled candidates whose signature differs from the default (i.e.
	// candidates that actually changed the plan), and the number of
	// *distinct* plans (signatures) discovered per 100 candidates — the
	// real currency of the search.
	SpanCompiled, SpanChanged, SpanDistinct    float64
	NaiveCompiled, NaiveChanged, NaiveDistinct float64
}

// SpanSearch runs the ablation over `jobs` sampled jobs with m candidates
// per policy.
func (r *Runner) SpanSearch(name string, day, jobs, m int) (*AblationSpanSearch, error) {
	h := r.Harness(name)
	rnd := r.sampleRand(name, "ablation-span")
	all := r.Day(name, day)
	idx := rnd.Sample(len(all), jobs)
	out := &AblationSpanSearch{Workload: name}

	nonRequired := bitvec.New(h.Opt.Rules.NonRequiredIDs()...)
	// Each job tallies into its own slot; the serial reduce below sums them
	// in input order, so the totals match a Workers=1 run exactly.
	type tally struct {
		counted                                          bool
		spanTried, spanOK, spanChanged, spanDistinct     int
		naiveTried, naiveOK, naiveChanged, naiveDistinct int
	}
	// Each job compiles on one optimizer session: the default, the span
	// probes and both policies' candidates share explored memos and group
	// states, and every Result is what a one-shot compile returns.
	policy := func(signature func(bitvec.Vector) (bitvec.Vector, error), def, span bitvec.Vector, r *xrand.Source) (tried, ok, changed, distinct int) {
		sigs := map[bitvec.Key]bool{def.Key(): true}
		for _, cfg := range steering.CandidateConfigs(span, h.Opt.Rules, m, r) {
			tried++
			sig, err := signature(cfg)
			if err != nil {
				continue
			}
			ok++
			if !sig.Equal(def) {
				changed++
			}
			if !sigs[sig.Key()] {
				sigs[sig.Key()] = true
				distinct++
			}
		}
		return tried, ok, changed, distinct
	}
	slots, _ := par.Map(r.Cfg.Workers, idx, func(_, i int) (tally, error) {
		job := all[i]
		sess := h.Opt.NewSession(job.Root)
		defer sess.Close()
		signature := func(cfg bitvec.Vector) (bitvec.Vector, error) {
			res, err := sess.Optimize(cfg, false)
			if err != nil {
				return bitvec.Vector{}, err
			}
			return res.Signature, nil
		}
		def, err := signature(h.Opt.Rules.DefaultConfig())
		if err != nil {
			return tally{}, nil
		}
		t := tally{counted: true}
		span, err := steering.JobSpanFunc(h.Opt.Rules, signature)
		if err != nil {
			return t, nil
		}
		t.spanTried, t.spanOK, t.spanChanged, t.spanDistinct =
			policy(signature, def, span, rnd.Derive("span", job.ID))
		// Naive policy: the "span" is every non-required rule.
		t.naiveTried, t.naiveOK, t.naiveChanged, t.naiveDistinct =
			policy(signature, def, nonRequired, rnd.Derive("naive", job.ID))
		return t, nil
	})
	var spanTried, spanOK, spanChanged, spanDistinct int
	var naiveTried, naiveOK, naiveChanged, naiveDistinct int
	for _, t := range slots {
		if t.counted {
			out.Jobs++
		}
		spanTried += t.spanTried
		spanOK += t.spanOK
		spanChanged += t.spanChanged
		spanDistinct += t.spanDistinct
		naiveTried += t.naiveTried
		naiveOK += t.naiveOK
		naiveChanged += t.naiveChanged
		naiveDistinct += t.naiveDistinct
	}
	if spanTried > 0 {
		out.SpanCompiled = float64(spanOK) / float64(spanTried)
		out.SpanDistinct = 100 * float64(spanDistinct) / float64(spanTried)
	}
	if spanOK > 0 {
		out.SpanChanged = float64(spanChanged) / float64(spanOK)
	}
	if naiveTried > 0 {
		out.NaiveCompiled = float64(naiveOK) / float64(naiveTried)
		out.NaiveDistinct = 100 * float64(naiveDistinct) / float64(naiveTried)
	}
	if naiveOK > 0 {
		out.NaiveChanged = float64(naiveChanged) / float64(naiveOK)
	}
	return out, nil
}

// Render prints the comparison.
func (a *AblationSpanSearch) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation (§5.1-5.2): span-guided vs naive configuration search, workload %s (%d jobs)\n", a.Workload, a.Jobs)
	fmt.Fprintf(w, "  %-22s %10s %14s %22s\n", "policy", "compiled", "plan-changed", "distinct plans/100cfg")
	fmt.Fprintf(w, "  %-22s %9.0f%% %13.0f%% %21.1f\n", "span-guided", 100*a.SpanCompiled, 100*a.SpanChanged, a.SpanDistinct)
	fmt.Fprintf(w, "  %-22s %9.0f%% %13.0f%% %21.1f\n", "all 219 rules", 100*a.NaiveCompiled, 100*a.NaiveChanged, a.NaiveDistinct)
}

// AblationGrouping compares the two granularities §6.4 weighs for
// extrapolation: recurring-template groups versus rule-signature job groups.
// Signature groups are far fewer and larger, which is what makes learning per
// group feasible ("there are tens of thousands of such templates, often with
// just one or a handful of jobs in each").
type AblationGrouping struct {
	Workload string
	Days     int
	Jobs     int

	TemplateGroups  int
	SignatureGroups int
	// Median and maximum group sizes under each granularity.
	TemplateMedian, TemplateMax   int
	SignatureMedian, SignatureMax int
}

// Grouping computes the comparison over a window of days.
func (r *Runner) Grouping(name string, days int) (*AblationGrouping, error) {
	var jobs []*workload.Job
	for d := 0; d < days; d++ {
		jobs = append(jobs, r.Day(name, d)...)
	}
	byTemplate := make(map[uint64]int)
	for _, j := range jobs {
		byTemplate[j.TemplateHash]++
	}
	groups, err := r.Pipeline(name).Grouper().Group(jobs)
	if err != nil {
		return nil, err
	}
	out := &AblationGrouping{
		Workload:        name,
		Days:            days,
		Jobs:            len(jobs),
		TemplateGroups:  len(byTemplate),
		SignatureGroups: len(groups),
	}
	var tSizes []int
	for _, n := range byTemplate {
		tSizes = append(tSizes, n)
	}
	slices.Sort(tSizes)
	out.TemplateMedian, out.TemplateMax = medianMax(tSizes)
	// Group orders the groups by descending size.
	sSizes := make([]int, len(groups))
	for i, g := range groups {
		sSizes[len(groups)-1-i] = len(g.Jobs)
	}
	out.SignatureMedian, out.SignatureMax = medianMax(sSizes)
	return out, nil
}

// medianMax returns the median and maximum of sizes, sorted ascending.
func medianMax(sizes []int) (med, max int) {
	if len(sizes) == 0 {
		return 0, 0
	}
	return sizes[len(sizes)/2], sizes[len(sizes)-1]
}

// Render prints the comparison.
func (a *AblationGrouping) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation (§6.4): extrapolation granularity, workload %s over %d days (%d jobs)\n", a.Workload, a.Days, a.Jobs)
	fmt.Fprintf(w, "  %-20s %8s %8s %8s\n", "granularity", "groups", "median", "max")
	fmt.Fprintf(w, "  %-20s %8d %8d %8d\n", "recurring template", a.TemplateGroups, a.TemplateMedian, a.TemplateMax)
	fmt.Fprintf(w, "  %-20s %8d %8d %8d\n", "rule signature", a.SignatureGroups, a.SignatureMedian, a.SignatureMax)
}
