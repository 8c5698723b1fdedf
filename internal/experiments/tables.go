package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/steering"
	"steerq/internal/workload"
)

// Table1 reproduces Table 1: per-workload daily job, template, input and
// rule-signature counts.
type Table1 struct {
	Rows  []Table1Row
	Total Table1Row
}

// Table1Row is one workload column of Table 1.
type Table1Row struct {
	Workload         string
	Jobs             int
	UniqueTemplates  int
	UniqueInputs     int
	UniqueSignatures int
}

// Table1 computes the statistics over one generated day of each workload.
func (r *Runner) Table1(day int) (*Table1, error) {
	out := &Table1{Total: Table1Row{Workload: "Total"}}
	for _, name := range []string{"A", "B", "C"} {
		jobs := r.Day(name, day)
		st := workload.DayStats(jobs)
		sigs, err := r.UniqueSignatures(name, jobs)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Workload:         name,
			Jobs:             st.Jobs,
			UniqueTemplates:  st.UniqueTemplates,
			UniqueInputs:     st.UniqueInputs,
			UniqueSignatures: sigs,
		}
		out.Rows = append(out.Rows, row)
		out.Total.Jobs += row.Jobs
		out.Total.UniqueTemplates += row.UniqueTemplates
		out.Total.UniqueInputs += row.UniqueInputs
		out.Total.UniqueSignatures += row.UniqueSignatures
	}
	return out, nil
}

// Render prints the table.
func (t *Table1) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 1: generated workloads (one day, scaled)\n")
	fmt.Fprintf(w, "%-24s %8s %8s %8s %8s\n", "", "A", "B", "C", "Total")
	rows := append(append([]Table1Row(nil), t.Rows...), t.Total)
	get := func(f func(Table1Row) int) []string {
		var out []string
		for _, r := range rows {
			out = append(out, fmt.Sprint(f(r)))
		}
		return out
	}
	p := func(label string, vals []string) {
		fmt.Fprintf(w, "%-24s %8s %8s %8s %8s\n", label, vals[0], vals[1], vals[2], vals[3])
	}
	p("# Jobs", get(func(r Table1Row) int { return r.Jobs }))
	p("# Unique Templates", get(func(r Table1Row) int { return r.UniqueTemplates }))
	p("# Unique Inputs", get(func(r Table1Row) int { return r.UniqueInputs }))
	p("# Unique rule signature", get(func(r Table1Row) int { return r.UniqueSignatures }))
}

// Table2 reproduces Table 2: the rule category census plus how many rules of
// each category went unused across one day of Workload A.
type Table2 struct {
	Rows []Table2Row
}

// Table2Row is one category row.
type Table2Row struct {
	Category cascades.Category
	Rules    int
	Unused   int
	Examples []string
}

// Table2 measures rule usage across a day of the given workload. Unlike the
// pipeline (which always compares against the default configuration, §4),
// the usage census compiles every job under its *submitted* configuration:
// the paper's production logs include customer jobs whose hints enable
// off-by-default rules, which is how those rules show usage in its Table 2.
func (r *Runner) Table2(name string, day int) (*Table2, error) {
	h := r.Harness(name)
	rs := h.Opt.Rules
	def := rs.DefaultConfig()
	used := bitvec.Vector{}
	for _, j := range r.Day(name, day) {
		res, err := h.Opt.Optimize(j.Root, j.SubmittedConfig(def))
		if err != nil {
			continue // hinted configurations can fail to compile (§4)
		}
		used = used.Or(res.Signature)
	}
	out := &Table2{}
	examples := map[cascades.Category][]string{
		cascades.Required:       {"EnforceExchange", "BuildOutput", "GetToRange", "SelectToFilter"},
		cascades.OffByDefault:   {"CorrelatedJoinOnUnionAll1", "GroupbyOnJoin"},
		cascades.OnByDefault:    {"CollapseSelects", "SelectPredNormalized", "GroupbyBelowUnionAll"},
		cascades.Implementation: {"HashJoinImpl1", "JoinToApplyIndex1", "UnionAllToVirtualDataset"},
	}
	for _, cat := range []cascades.Category{cascades.Required, cascades.OffByDefault, cascades.OnByDefault, cascades.Implementation} {
		row := Table2Row{Category: cat, Examples: examples[cat]}
		for _, ri := range rs.Infos() {
			if ri.Category != cat {
				continue
			}
			row.Rules++
			if !used.Get(ri.ID) {
				row.Unused++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table.
func (t *Table2) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: rule categories over one day (submitted-configuration usage)\n")
	fmt.Fprintf(w, "%-16s %7s %8s  %s\n", "Category", "#Rules", "#Unused", "Examples")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %7d %8d  %s\n", r.Category, r.Rules, r.Unused, strings.Join(r.Examples, ", "))
	}
}

// Table3 reproduces Table 3: average runtime change when always choosing the
// best known configuration (including the default) for the analyzed jobs.
type Table3 struct {
	Rows []Table3Row
}

// Table3Row is one workload column.
type Table3Row struct {
	Workload   string
	Queries    int
	DeltaSec   float64 // mean (best - default), negative is better
	DeltaPct   float64 // mean percentage change
	MaxPctGain float64 // most negative percentage change observed
}

// Table3 derives the summary from the pipeline analyses of each workload.
func (r *Runner) Table3(day int) (*Table3, error) {
	out := &Table3{}
	for _, name := range []string{"A", "B", "C"} {
		as := r.AnalyzedJobs(name, day)
		row := Table3Row{Workload: name}
		var sumSec, sumPct float64
		for _, a := range as {
			best := a.BestConfig(steering.MetricRuntime)
			d := best.Metrics.RuntimeSec - a.Default.Metrics.RuntimeSec
			pct := a.PercentChange(best, steering.MetricRuntime)
			sumSec += d
			sumPct += pct
			if pct < row.MaxPctGain {
				row.MaxPctGain = pct
			}
			row.Queries++
		}
		if row.Queries > 0 {
			row.DeltaSec = sumSec / float64(row.Queries)
			row.DeltaPct = sumPct / float64(row.Queries)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table.
func (t *Table3) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 3: average runtime change with the best known configuration\n")
	fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "", "A", "B", "C")
	row := func(label string, f func(Table3Row) string) {
		vals := make([]string, len(t.Rows))
		for i, r := range t.Rows {
			vals[i] = f(r)
		}
		fmt.Fprintf(w, "%-16s %10s %10s %10s\n", label, vals[0], vals[1], vals[2])
	}
	row("# Queries", func(r Table3Row) string { return fmt.Sprint(r.Queries) })
	row("dRuntime", func(r Table3Row) string { return fmt.Sprintf("%+.0fs", r.DeltaSec) })
	row("dPercentage", func(r Table3Row) string { return fmt.Sprintf("%+.0f%%", r.DeltaPct) })
	row("best job", func(r Table3Row) string { return fmt.Sprintf("%+.0f%%", r.MaxPctGain) })
}

// Table4 reproduces Table 4: RuleDiffs of the best configurations found for
// sample jobs with large improvements.
type Table4 struct {
	Rows []Table4Row
}

// Table4Row is one sample job.
type Table4Row struct {
	Job         string
	PctChange   float64
	OnlyDefault []string
	OnlyBest    []string
}

// Table4 picks the top improving analyzed jobs per workload and reports their
// RuleDiffs.
func (r *Runner) Table4(day, perWorkload int) (*Table4, error) {
	out := &Table4{}
	for _, name := range []string{"A", "B"} {
		h := r.Harness(name)
		as := r.AnalyzedJobs(name, day)
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
			sc = append(sc, scored{a, a.PercentChange(best, steering.MetricRuntime)})
		}
		sort.Slice(sc, func(i, j int) bool { return sc[i].pct < sc[j].pct })
		for i := 0; i < perWorkload && i < len(sc); i++ {
			a := sc[i].a
			best := a.BestAlternative(steering.MetricRuntime)
			diff := steering.Diff(a.Default.Signature, best.Signature)
			out.Rows = append(out.Rows, Table4Row{
				Job:         fmt.Sprintf("Q_%s%d (%s)", name, i+1, a.Job.ID),
				PctChange:   sc[i].pct,
				OnlyDefault: h.Opt.Rules.Names(diff.OnlyDefault),
				OnlyBest:    h.Opt.Rules.Names(diff.OnlyNew),
			})
		}
	}
	return out, nil
}

// Render prints the table.
func (t *Table4) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 4: RuleDiff for sample jobs (best configuration vs default)\n")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-22s %+6.0f%%\n", r.Job, r.PctChange)
		fmt.Fprintf(w, "    only in default plan: %s\n", capList(r.OnlyDefault, 4))
		fmt.Fprintf(w, "    only in best plan:    %s\n", capList(r.OnlyBest, 4))
	}
}

func capList(names []string, n int) string {
	if len(names) == 0 {
		return "-"
	}
	if len(names) <= n {
		return strings.Join(names, ", ")
	}
	return fmt.Sprintf("%s, %d more rules", strings.Join(names[:n], ", "), len(names)-n)
}
