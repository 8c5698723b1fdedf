package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/serve"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// Figure1 reproduces Figure 1: one rule configuration applied to a recurring
// job group over a span of days, with per-job percentage runtime change.
type Figure1 struct {
	Workload    string
	GroupSize   int
	Days        int
	Comparisons []steering.Comparison
}

// Figure1 finds the analyzed job whose best configuration extrapolates most
// consistently across its rule-signature job group over `days` days, then
// reports that configuration's per-job changes (capped at maxJobs jobs, 65 in
// the paper's plot).
func (r *Runner) Figure1(name string, days, maxJobs int) (*Figure1, error) {
	p := r.Pipeline(name)
	as := r.AnalyzedJobs(name, 0)
	// Rank candidate base jobs by their best improvement.
	type scored struct {
		a   *steering.Analysis
		pct float64
	}
	var sc []scored
	for _, a := range as {
		best := a.BestAlternative(steering.MetricRuntime)
		if best == nil {
			continue
		}
		pct := a.PercentChange(best, steering.MetricRuntime)
		if pct < -10 {
			sc = append(sc, scored{a, pct})
		}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].pct < sc[j].pct })

	// Group the multi-day corpus once; a group lists its jobs in corpus order.
	var corpus []*workload.Job
	for d := 0; d < days; d++ {
		corpus = append(corpus, r.Day(name, d)...)
	}
	groups, err := p.Grouper().Group(corpus)
	if err != nil {
		return nil, err
	}
	bySig := make(map[bitvec.Key][]*workload.Job, len(groups))
	for _, g := range groups {
		bySig[g.Signature.Key()] = g.Jobs
	}

	best := &Figure1{Workload: name, Days: days}
	bestScore := math.Inf(1)
	for i := 0; i < len(sc) && i < 5; i++ {
		a := sc[i].a
		var group []*workload.Job
		for _, j := range bySig[a.Default.Signature.Key()] {
			if j.ID != a.Job.ID {
				group = append(group, j)
			}
		}
		if len(group) < 5 {
			continue
		}
		if len(group) > maxJobs {
			group = group[:maxJobs]
		}
		cfg := a.BestAlternative(steering.MetricRuntime).Config
		cmp := steering.Extrapolate(p, cfg, group)
		if len(cmp) == 0 {
			continue
		}
		var mean float64
		for _, c := range cmp {
			mean += c.PctChange
		}
		mean /= float64(len(cmp))
		if mean < bestScore {
			bestScore = mean
			best.Comparisons = cmp
			best.GroupSize = len(group)
		}
	}
	return best, nil
}

// Render prints the per-job series.
func (f *Figure1) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: one configuration across a recurring job group, workload %s, %d days\n", f.Workload, f.Days)
	improved := 0
	for _, c := range f.Comparisons {
		if c.PctChange < 0 {
			improved++
		}
		fmt.Fprintf(w, "  %-14s default=%7.0fs steered=%7.0fs  %+6.1f%%\n",
			c.Job.ID, c.Default.Metrics.RuntimeSec, c.New.Metrics.RuntimeSec, c.PctChange)
	}
	fmt.Fprintf(w, "  summary: %d/%d jobs improved\n", improved, len(f.Comparisons))
}

// The daily loop's shape: loopDays day pairs per workload; the first
// tunePairs of tuneWorkload tune bundle rules, every other pair is held out.
const (
	loopDays     = 6
	tuneWorkload = "A"
	tunePairs    = 3
)

// Loop is the paper's daily pipeline (§6.4, Figure 1) run offline: each
// day's bundle served to the next day's jobs through the lookup steerqd
// answers with, every steered hit compared with its default run.
type Loop struct {
	Rows []LoopRow
}

// LoopRow is what one workload's bundles did to the jobs they were served
// to: one day pair, a split's total over its pairs, or the day-0 bundle's
// shelf life over days 1–6.
type LoopRow struct {
	Workload string
	Kind     string // "pair", "total" or "shelf"
	Split    string // "tune", "held-out", or "mixed" for a span over both
	// Built and Served span the days the row's bundles were built on and
	// served to.
	Built, Served   [2]int
	Steered, Groups int
	// Jobs counts the KindHit jobs whose default ran, Guarded those of them
	// that ran the default because abtest.Admit refused the served
	// configuration (each at ratio 1). DefaultSec and ServedSec sum their
	// runtimes and Median is their median served/default ratio. Worse and
	// Better count jobs more than 10 % slower or faster, Tenfold those at
	// ≥ 10× their default, and Worst is the job with the highest ratio.
	Jobs, Guarded                 int
	DefaultSec, ServedSec, Median float64
	Worse, Better, Tenfold        int
	Worst                         string
	WorstRatio                    float64
	served                        []steering.Comparison
}

// add folds a later row's served jobs into this one, widening its spans.
func (row *LoopRow) add(o LoopRow) {
	if row.Split == "" {
		row.Split, row.Built[0], row.Served[0] = o.Split, o.Built[0], o.Served[0]
	} else if row.Split != o.Split {
		row.Split = "mixed"
	}
	row.Built[1], row.Served[1] = o.Built[1], o.Served[1]
	row.Steered += o.Steered
	row.Groups += o.Groups
	row.Guarded += o.Guarded
	row.served = append(row.served, o.served...)
}

// tally derives the row's figures from its served jobs.
func (row *LoopRow) tally() {
	ratios := make([]float64, 0, len(row.served))
	for _, c := range row.served {
		ratio := 1 + c.PctChange/100
		row.DefaultSec += c.Default.Metrics.RuntimeSec
		row.ServedSec += c.New.Metrics.RuntimeSec
		switch {
		case c.PctChange > 10:
			row.Worse++
		case c.PctChange < -10:
			row.Better++
		}
		if ratio >= 10 {
			row.Tenfold++
		}
		if ratio > row.WorstRatio {
			row.Worst, row.WorstRatio = c.Job.ID, ratio
		}
		ratios = append(ratios, ratio)
	}
	if row.Jobs = len(ratios); row.Jobs > 0 {
		sort.Float64s(ratios)
		row.Median = ratios[row.Jobs/2]
	}
}

// Loop builds each workload's bundle on day d = 0 … 5 and serves it to day
// d+1: the six pairs, one total per split, and the day-0 bundle served to
// days 1–6.
func (r *Runner) Loop(names ...string) (*Loop, error) {
	out := &Loop{}
	for _, name := range names {
		var pairs, totals []LoopRow
		var day0 *serve.Table
		for d := 0; d < loopDays; d++ {
			b, rep, err := r.Pipeline(name).BuildBundleCtx(context.Background(), r.Day(name, d), 0, 0)
			if err != nil {
				return nil, err
			}
			t := serve.NewTable(b)
			if d == 0 {
				day0 = t
			}
			row := r.serveDay(name, t, d, d+1)
			row.Steered, row.Groups = rep.Steered, rep.Groups
			pairs = append(pairs, row)
			if n := len(totals); n == 0 || totals[n-1].Split != row.Split {
				totals = append(totals, LoopRow{Workload: name, Kind: "total"})
			}
			totals[len(totals)-1].add(row)
		}
		shelf := LoopRow{Workload: name, Kind: "shelf"}
		shelf.add(pairs[0])
		for d := 2; d <= loopDays; d++ {
			shelf.add(r.serveDay(name, day0, 0, d))
		}
		out.Rows = append(append(append(out.Rows, pairs...), totals...), shelf)
	}
	for i := range out.Rows {
		out.Rows[i].tally()
	}
	return out, nil
}

// serveDay serves the table built on day built to the jobs of day served:
// each job whose default signature serve.Table.Lookup resolves to KindHit
// runs under that configuration and the default (steering.Compare). A hit
// abtest.Admit refuses runs the default: it counts in Guarded, and in Jobs at
// ratio 1.
func (r *Runner) serveDay(name string, t *serve.Table, built, served int) LoopRow {
	row := LoopRow{Workload: name, Kind: "pair", Split: "held-out",
		Built: [2]int{built, built}, Served: [2]int{served, served}}
	if name == tuneWorkload && served <= tunePairs {
		row.Split = "tune"
	}
	p := r.Pipeline(name)
	g := p.Grouper()
	for _, j := range r.Day(name, served) {
		sig, err := g.DefaultSignature(j)
		d := t.Lookup(sig)
		if err != nil || d.Kind != serve.KindHit {
			continue
		}
		c := steering.Compare(p, d.Config, j)
		if c.Default.Err != nil {
			continue
		}
		if !abtest.Admit(c.Default.EstCost, c.New.EstCost, c.New.Err) {
			c.New, c.PctChange = c.Default, 0
			row.Guarded++
		}
		row.served = append(row.served, c)
	}
	return row
}

// Render prints one row per day pair, split total and shelf life.
func (l *Loop) Render(w io.Writer) {
	fmt.Fprintf(w, "  day-d bundle served to day-d+1 jobs, every steered hit vs default; a guarded hit (served config with no plan or a higher estimated cost) runs the default, in jobs at ratio 1 (%s's first %d pairs tune, the rest are held out; shelf: the day-0 bundle on days 1-%d):\n",
		tuneWorkload, tunePairs, loopDays)
	fmt.Fprintf(w, "  workload  row    split     bundle  served  steered/groups   jobs  guarded  Σ runtime  median  >10%% worse/better  ≥10×  worst job\n")
	days := func(d [2]int) string {
		if d[0] == d[1] {
			return fmt.Sprintf("d%d", d[0])
		}
		return fmt.Sprintf("d%d-%d", d[0], d[1])
	}
	for _, row := range l.Rows {
		pct := 0.0
		if row.DefaultSec > 0 {
			pct = 100 * (row.ServedSec - row.DefaultSec) / row.DefaultSec
		}
		fmt.Fprintf(w, "  %-8s  %-5s  %-8s  %-6s  %-6s  %14s  %5d  %7d  %+8.1f%%  %6.2f  %17s  %4d  %s %.1f×\n",
			row.Workload, row.Kind, row.Split, days(row.Built), days(row.Served),
			fmt.Sprintf("%d/%d", row.Steered, row.Groups), row.Jobs, row.Guarded, pct, row.Median,
			fmt.Sprintf("%d/%d", row.Worse, row.Better), row.Tenfold, row.Worst, row.WorstRatio)
	}
}

// Figure2 reproduces Figure 2's four panels over one day of a workload:
// (a) the runtime distribution, (b) how many jobs use each rule, (c) how many
// distinct rules each job uses, (d) the rule-signature group-size
// distribution.
type Figure2 struct {
	Workload string

	RuntimeHist Histogram
	// LongJobFrac is the fraction of jobs over five minutes;
	// LongJobContainers their share of containers (the paper: ~10% of jobs
	// hold ~90% of containers).
	LongJobFrac       float64
	LongJobContainers float64

	// RuleUsage[i] is the number of jobs using the i-th most used rule.
	RuleUsage []int
	// RulesPerJob histograms distinct rules per job.
	RulesPerJob Histogram
	// GroupSizes lists signature-group sizes, descending.
	GroupSizes []int
}

// Figure2 computes the four distributions.
func (r *Runner) Figure2(name string, day int) (*Figure2, error) {
	jobs := r.Day(name, day)

	var runtimes, perJob []float64
	usage := make(map[int]int)
	groupSizes := make(map[bitvec.Key]int)
	var totalVertices, longVertices float64
	long := 0
	for _, j := range jobs {
		t := r.DefaultTrial(name, j)
		if t.Err != nil {
			continue
		}
		rt := t.Metrics.RuntimeSec
		runtimes = append(runtimes, rt)
		v := t.Metrics.VertexSeconds
		totalVertices += v
		if rt > 300 {
			long++
			longVertices += v
		}
		ones := t.Signature.Ones()
		perJob = append(perJob, float64(len(ones)))
		for _, id := range ones {
			usage[id]++
		}
		groupSizes[t.Signature.Key()]++
	}

	f := &Figure2{Workload: name}
	f.RuntimeHist = NewHistogram("runtime (s)",
		[]float64{0, 10, 30, 60, 120, 300, 600, 1800, 3600, 7200, 86400}, runtimes)
	if len(runtimes) > 0 {
		f.LongJobFrac = float64(long) / float64(len(runtimes))
	}
	if totalVertices > 0 {
		f.LongJobContainers = longVertices / totalVertices
	}
	for _, n := range usage {
		f.RuleUsage = append(f.RuleUsage, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(f.RuleUsage)))
	f.RulesPerJob = NewHistogram("rules per job",
		[]float64{0, 4, 6, 8, 10, 12, 14, 16, 20, 32}, perJob)
	for _, n := range groupSizes {
		f.GroupSizes = append(f.GroupSizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(f.GroupSizes)))
	return f, nil
}

// Render prints all four panels.
func (f *Figure2) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 2 (workload %s):\n", f.Workload)
	fmt.Fprintf(w, "(a) runtime distribution; %.0f%% of jobs >5min holding %.0f%% of containers\n",
		100*f.LongJobFrac, 100*f.LongJobContainers)
	f.RuntimeHist.Render(w)
	fmt.Fprintf(w, "(b) jobs per rule (most-used first): %v\n", headInts(f.RuleUsage, 20))
	fmt.Fprintf(w, "(c) distinct rules used per job:\n")
	f.RulesPerJob.Render(w)
	fmt.Fprintf(w, "(d) rule-signature group sizes (descending): %v\n", headInts(f.GroupSizes, 20))
}

func headInts(s []int, n int) []int {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// Figure3 reproduces Figure 3: the average (± one standard deviation) number
// of span rules per job, grouped by rule category.
type Figure3 struct {
	Workload string
	Jobs     int
	Rows     []Figure3Row
}

// Figure3Row is one category.
type Figure3Row struct {
	Category string
	Mean     float64
	Std      float64
}

// Figure3 computes spans over a sample of the day's jobs.
func (r *Runner) Figure3(name string, day, sample int) (*Figure3, error) {
	h := r.Harness(name)
	jobs := r.Day(name, day)
	rnd := r.sampleRand(name, "fig3")
	idx := rnd.Sample(len(jobs), sample)

	var vals [cascades.NumCategories][]float64
	var totals []float64
	n := 0
	for _, i := range idx {
		span, err := steering.JobSpan(h.Opt, jobs[i].Root)
		if err != nil {
			continue
		}
		n++
		total := 0
		for cat, v := range steering.SpanByCategory(span, h.Opt.Rules) {
			if !v.IsEmpty() { // meanStd counts a job missing from vals as 0
				vals[cat] = append(vals[cat], float64(v.Count()))
				total += v.Count()
			}
		}
		totals = append(totals, float64(total))
	}
	out := &Figure3{Workload: name, Jobs: n}
	// Spans hold no required rule (they ignore the configuration).
	for cat := cascades.OffByDefault; cat < cascades.NumCategories; cat++ {
		m, s := meanStd(vals[cat], n)
		out.Rows = append(out.Rows, Figure3Row{Category: cat.String(), Mean: m, Std: s})
	}
	m, s := meanStd(totals, n)
	out.Rows = append(out.Rows, Figure3Row{Category: "total", Mean: m, Std: s})
	return out, nil
}

func meanStd(vals []float64, n int) (mean, std float64) {
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(n) // jobs without any rule of a category count as 0
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	ss += float64(n-len(vals)) * mean * mean
	std = math.Sqrt(ss / float64(n))
	return mean, std
}

// Render prints mean ± std per category.
func (f *Figure3) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: rules in the job span by category (workload %s, %d jobs)\n", f.Workload, f.Jobs)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-16s %5.1f +/- %4.1f\n", r.Category, r.Mean, r.Std)
	}
}

// Figure4 reproduces Figure 4: the default plan's estimated cost versus the
// estimated costs of all recompiled candidate configurations, for a sample of
// jobs — demonstrating that recompilation under different configurations
// finds plans the optimizer itself costs *below* the default, the paper's
// §5.3 "paradox".
type Figure4 struct {
	Workload string
	Rows     []Figure4Row
}

// Figure4Row is one job.
type Figure4Row struct {
	Job         string
	DefaultCost float64
	Candidates  int
	MinCost     float64
	MedianCost  float64
	CheaperFrac float64
}

// Figure4 recompiles candidates for `sample` random jobs of the day.
// Recompilation is cheap, so the sample spans the whole day's jobs (the
// execution-stage filters of §5.3 do not apply to this cost-only stage).
func (r *Runner) Figure4(name string, day, sample int) (*Figure4, error) {
	p := r.Pipeline(name)
	jobs := r.Day(name, day)
	rnd := r.sampleRand(name, "fig4")
	idx := rnd.Sample(len(jobs), sample)
	out := &Figure4{Workload: name}
	for _, i := range idx {
		a, err := p.RecompileCtx(context.Background(), jobs[i])
		if err != nil || len(a.Candidates) == 0 {
			continue
		}
		costs := make([]float64, 0, len(a.Candidates))
		cheaper := 0
		for _, c := range a.Candidates {
			costs = append(costs, c.EstCost)
			if c.EstCost < a.Default.EstCost {
				cheaper++
			}
		}
		sort.Float64s(costs)
		out.Rows = append(out.Rows, Figure4Row{
			Job:         jobs[i].ID,
			DefaultCost: a.Default.EstCost,
			Candidates:  len(costs),
			MinCost:     costs[0],
			MedianCost:  costs[len(costs)/2],
			CheaperFrac: float64(cheaper) / float64(len(costs)),
		})
	}
	return out, nil
}

// Render prints per-job cost spreads.
func (f *Figure4) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4: default vs candidate estimated costs (workload %s)\n", f.Workload)
	fmt.Fprintf(w, "  %-14s %10s %6s %10s %10s %9s\n", "job", "default", "#cand", "min", "median", "%cheaper")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "  %-14s %10.1f %6d %10.1f %10.1f %8.0f%%\n",
			r.Job, r.DefaultCost, r.Candidates, r.MinCost, r.MedianCost, 100*r.CheaperFrac)
	}
}

// Figure5 reproduces Figure 5: the estimated-cost versus runtime scatter of a
// day's jobs under the default configuration, bucketed into a quantile grid.
// The interesting region is the top-left corner — cheap on paper, slow in
// reality — which heuristic (2) of §6.1 mines for steering candidates.
type Figure5 struct {
	Workload string
	// Grid[i][j] counts jobs in cost-quantile column j and runtime-quantile
	// row i (row 0 = slowest).
	Grid       [5][5]int
	CostEdges  [6]float64
	RtEdges    [6]float64
	CornerJobs []string // examples from the low-cost/high-runtime corner
}

// Figure5 computes the scatter grid.
func (r *Runner) Figure5(name string, day int) (*Figure5, error) {
	type pt struct {
		job      string
		cost, rt float64
	}
	var pts []pt
	for _, j := range r.Day(name, day) {
		t := r.DefaultTrial(name, j)
		if t.Err != nil {
			continue
		}
		pts = append(pts, pt{j.ID, t.EstCost, t.Metrics.RuntimeSec})
	}
	f := &Figure5{Workload: name}
	if len(pts) == 0 {
		return f, nil
	}
	costs := make([]float64, len(pts))
	rts := make([]float64, len(pts))
	for i, p := range pts {
		costs[i], rts[i] = p.cost, p.rt
	}
	sort.Float64s(costs)
	sort.Float64s(rts)
	q := func(s []float64, frac float64) float64 { return s[int(frac*float64(len(s)-1))] }
	for i := 0; i <= 5; i++ {
		f.CostEdges[i] = q(costs, float64(i)/5)
		f.RtEdges[i] = q(rts, float64(i)/5)
	}
	bucket := func(edges [6]float64, v float64) int {
		for b := 0; b < 4; b++ {
			if v < edges[b+1] {
				return b
			}
		}
		return 4
	}
	for _, p := range pts {
		cb := bucket(f.CostEdges, p.cost)
		rb := bucket(f.RtEdges, p.rt)
		f.Grid[4-rb][cb]++ // row 0 = slowest quantile
		if cb <= 1 && rb >= 4 && len(f.CornerJobs) < 8 {
			f.CornerJobs = append(f.CornerJobs, fmt.Sprintf("%s(cost=%.0f,rt=%.0fs)", p.job, p.cost, p.rt))
		}
	}
	return f, nil
}

// Render prints the quantile grid.
func (f *Figure5) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: estimated cost (columns, cheap->expensive) vs runtime (rows, slow->fast), workload %s\n", f.Workload)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(w, "  rt q%d |", 5-i)
		for j := 0; j < 5; j++ {
			fmt.Fprintf(w, " %5d", f.Grid[i][j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  low-cost/high-runtime corner examples: %v\n", f.CornerJobs)
}

// Figure6 reproduces Figure 6: per selected job, the percentage runtime
// change of the best executed alternative configuration.
type Figure6 struct {
	Workload string
	Changes  []Figure6Row
}

// Figure6Row is one job.
type Figure6Row struct {
	Job       string
	DefaultRT float64
	BestRT    float64
	PctChange float64
}

// Figure6 reports the analyzed jobs of one workload.
func (r *Runner) Figure6(name string, day int) (*Figure6, error) {
	as := r.AnalyzedJobs(name, day)
	f := &Figure6{Workload: name}
	for _, a := range as {
		best := a.BestAlternative(steering.MetricRuntime)
		if best == nil {
			continue
		}
		f.Changes = append(f.Changes, Figure6Row{
			Job:       a.Job.ID,
			DefaultRT: a.Default.Metrics.RuntimeSec,
			BestRT:    best.Metrics.RuntimeSec,
			PctChange: a.PercentChange(best, steering.MetricRuntime),
		})
	}
	sort.Slice(f.Changes, func(i, j int) bool { return f.Changes[i].PctChange < f.Changes[j].PctChange })
	return f, nil
}

// Render prints the sorted change series.
func (f *Figure6) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 (workload %s): best alternative configuration per job\n", f.Workload)
	improved := 0
	for _, c := range f.Changes {
		if c.PctChange < 0 {
			improved++
		}
		fmt.Fprintf(w, "  %-14s default=%7.0fs best=%7.0fs  %+6.1f%%\n", c.Job, c.DefaultRT, c.BestRT, c.PctChange)
	}
	fmt.Fprintf(w, "  summary: %d/%d improved\n", improved, len(f.Changes))
}

// Figure7 reproduces Figure 7: for each analyzed Workload B job, pick the
// executed configuration that is best for one metric and report the change in
// all three metrics — exposing the cross-metric tension of §6.2.
type Figure7 struct {
	Workload string
	// Panels[m] selects by metric m; each row holds the three metric
	// changes for one job.
	Panels [3][]Figure7Row
}

// Figure7Row is one job under one selection policy.
type Figure7Row struct {
	Job                       string
	RuntimePct, CPUPct, IOPct float64
}

// Figure7 derives the three panels from the cached analyses. Workload B's
// long-running jobs are few per day, so the experiment pools analyses over
// days [0, day] (the paper pooled B jobs across days for its 100-job panels,
// §6.4).
func (r *Runner) Figure7(name string, day int) (*Figure7, error) {
	var as []*steering.Analysis
	for d := 0; d <= day; d++ {
		as = append(as, r.AnalyzedJobs(name, d)...)
	}
	f := &Figure7{Workload: name}
	for mi, m := range []steering.Metric{steering.MetricRuntime, steering.MetricCPU, steering.MetricIO} {
		for _, a := range as {
			// Choose among the executed configurations *including* the
			// default: jobs where no alternative wins keep their default
			// plan (the paper's bar-less entries).
			best := a.BestConfig(m)
			f.Panels[mi] = append(f.Panels[mi], Figure7Row{
				Job:        a.Job.ID,
				RuntimePct: a.PercentChange(best, steering.MetricRuntime),
				CPUPct:     a.PercentChange(best, steering.MetricCPU),
				IOPct:      a.PercentChange(best, steering.MetricIO),
			})
		}
	}
	return f, nil
}

// Render prints the three panels with per-metric regression counts.
func (f *Figure7) Render(w io.Writer) {
	labels := []string{"(a) best runtime", "(b) best CPU time", "(c) best I/O time"}
	fmt.Fprintf(w, "Figure 7 (workload %s): metric tension across configuration selection policies\n", f.Workload)
	for mi, rows := range f.Panels {
		var regRT, regCPU, regIO int
		for _, r := range rows {
			if r.RuntimePct > 1 {
				regRT++
			}
			if r.CPUPct > 1 {
				regCPU++
			}
			if r.IOPct > 1 {
				regIO++
			}
		}
		fmt.Fprintf(w, "%s: %d jobs; regressions runtime=%d cpu=%d io=%d\n", labels[mi], len(rows), regRT, regCPU, regIO)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-14s rt=%+6.1f%% cpu=%+6.1f%% io=%+6.1f%%\n", r.Job, r.RuntimePct, r.CPUPct, r.IOPct)
		}
	}
}

// sampleRand returns a deterministic sampling stream for one experiment.
func (r *Runner) sampleRand(name, tag string) *xrand.Source {
	return xrand.New(r.Cfg.Seed).Derive("exp", name, tag)
}
