package steering_test

import (
	"context"
	"testing"
	"testing/quick"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func steerCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "f",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 2000, TrueDistinct: 2000, Min: 0, Max: 2000, Skew: 1.1},
			{Name: "v", Distinct: 500, TrueDistinct: 500, Min: 0, Max: 500},
			{Name: "flag", Distinct: 12, TrueDistinct: 12, Min: 0, Max: 12},
		},
		BaseRows: 3e7, BytesPerRow: 70, DailySigma: 0.2, GrowthPerDay: 1,
	})
	cat.AddStream(&catalog.Stream{
		Name: "d",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 2000, TrueDistinct: 2000, Min: 0, Max: 2000},
			{Name: "attr", Distinct: 30, TrueDistinct: 30, Min: 0, Max: 30},
		},
		BaseRows: 2000, BytesPerRow: 40, GrowthPerDay: 1,
	})
	return cat
}

func steerHarness(cat *catalog.Catalog) *abtest.Harness {
	return abtest.New(cat, rules.NewOptimizer(cost.NewEstimated(cat)), 7)
}

const steerScript = `
f1 = SELECT k, v FROM "f" WHERE v > 100 AND flag == 2;
j = SELECT f1.k AS k, d.attr AS attr, f1.v AS v FROM f1 INNER JOIN "d" AS d ON f1.k == d.k;
a = SELECT attr, SUM(v) AS total, COUNT(*) AS cnt FROM j GROUP BY attr;
OUTPUT a TO "out/s";
`

func steerJob(t *testing.T, cat *catalog.Catalog) *workload.Job {
	t.Helper()
	root, err := scopeql.Compile(steerScript, cat)
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Job{ID: "test/j0", Root: root, Script: steerScript}
}

func TestJobSpanContainsDefaultSignature(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	span, err := steering.JobSpan(h.Opt, job.Root)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Opt.Optimize(job.Root, h.Opt.Rules.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nonRequired := bitvec.New(h.Opt.Rules.NonRequiredIDs()...)
	defaultNonReq := res.Signature.And(nonRequired)
	if !span.Contains(defaultNonReq) {
		t.Fatalf("span %v misses default-signature rules %v", span, defaultNonReq.AndNot(span))
	}
	// The span discovers alternatives beyond the default path (e.g. other
	// join implementations).
	if span.Count() <= defaultNonReq.Count() {
		t.Fatalf("span (%d rules) found no alternatives beyond the default signature (%d)",
			span.Count(), defaultNonReq.Count())
	}
}

func TestJobSpanDeterministic(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	s1, err := steering.JobSpan(h.Opt, job.Root)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := steering.JobSpan(h.Opt, job.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatal("span not deterministic")
	}
}

func TestJobSpanExcludesRequired(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	span, err := steering.JobSpan(h.Opt, job.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range span.Ones() {
		if ri, _ := h.Opt.Rules.Info(id); ri.Category == cascades.Required {
			t.Fatalf("required rule %s in job span", ri)
		}
	}
}

func TestCandidateConfigsProperties(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	span, err := steering.JobSpan(h.Opt, job.Root)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := steering.CandidateConfigs(span, h.Opt.Rules, 50, xrand.New(1))
	if len(cfgs) == 0 {
		t.Fatal("no candidates generated")
	}
	seen := make(map[bitvec.Key]bool)
	for _, cfg := range cfgs {
		if seen[cfg.Key()] {
			t.Fatal("duplicate candidate configuration")
		}
		seen[cfg.Key()] = true
		// Every rule outside the span is enabled (step 1 of §5.2).
		disabled := bitvec.AllSet(bitvec.Width).AndNot(cfg)
		if !span.Contains(disabled) {
			t.Fatalf("candidate disables non-span rules: %v", disabled.AndNot(span))
		}
	}
}

func TestCandidateConfigsCapBydistinct(t *testing.T) {
	// A tiny span bounds the number of distinct configurations.
	span := bitvec.New(40, 224)
	rs := rules.Catalog()
	cfgs := steering.CandidateConfigs(span, rs, 1000, xrand.New(2))
	if len(cfgs) > 4 {
		t.Fatalf("span of 2 rules yielded %d candidates, max 4 possible", len(cfgs))
	}
}

// candidateConfigsFullBudget is CandidateConfigs as it was before it learned
// to stop at an exhausted span: it keeps sampling until m configurations are
// out or the whole attempt budget is spent. Kept as the reference the
// short-circuit is held to.
func candidateConfigsFullBudget(span bitvec.Vector, rs *cascades.RuleSet, m int, r *xrand.Source) []bitvec.Vector {
	var catBits [][]int
	for cat, v := range steering.SpanByCategory(span, rs) {
		if cascades.Category(cat) != cascades.Required && !v.IsEmpty() {
			catBits = append(catBits, v.Ones())
		}
	}
	all := bitvec.AllSet(bitvec.Width)
	if m <= 0 {
		return nil
	}
	if len(catBits) == 0 {
		return []bitvec.Vector{all}
	}
	seen := make(map[bitvec.Key]bool, m)
	var out []bitvec.Vector
	for attempts := 0; len(out) < m && attempts < 20*m+100; attempts++ {
		cfg := all
		for _, bits := range catBits {
			k := r.Intn(len(bits) + 1)
			for _, idx := range r.Perm(len(bits))[:k] {
				cfg.Clear(bits[idx])
			}
		}
		if !seen[cfg.Key()] {
			seen[cfg.Key()] = true
			out = append(out, cfg)
		}
	}
	return out
}

// TestCandidateConfigsStopsAtExhaustedSpan: stopping once all 2^n
// configurations of an n-rule span are out yields exactly what spending the
// whole attempt budget yields, for spans below, at and above m.
func TestCandidateConfigsStopsAtExhaustedSpan(t *testing.T) {
	rs := rules.Catalog()
	ids := rs.NonRequiredIDs()
	pick := xrand.New(11)
	exhausted := 0
	for n := 0; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			var span bitvec.Vector
			for _, i := range pick.Perm(len(ids))[:n] {
				span.Set(ids[i])
			}
			for _, m := range []int{1, 7, 300, 1000} {
				seed := uint64(1000*n + 10*trial + m)
				got := steering.CandidateConfigs(span, rs, m, xrand.New(seed))
				want := candidateConfigsFullBudget(span, rs, m, xrand.New(seed))
				if len(got) != len(want) {
					t.Fatalf("span of %d rules, m=%d: %d configurations, full budget finds %d", n, m, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("span of %d rules, m=%d: configuration %d differs from the full-budget loop's", n, m, i)
					}
				}
				if len(got) == 1<<n && len(got) < m {
					exhausted++
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no span was exhausted below m; the test is vacuous")
	}
}

func TestDiffProperties(t *testing.T) {
	f := func(aBits, bBits []uint8) bool {
		var a, b bitvec.Vector
		for _, i := range aBits {
			a.Set(int(i))
		}
		for _, i := range bBits {
			b.Set(int(i))
		}
		d := steering.Diff(a, b)
		for _, id := range d.OnlyDefault {
			if !a.Get(id) || b.Get(id) {
				return false
			}
		}
		for _, id := range d.OnlyNew {
			if a.Get(id) || !b.Get(id) {
				return false
			}
		}
		return len(d.OnlyDefault)+len(d.OnlyNew) == steering.DiffVector(a, b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineAnalysis(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(3))
	p.MaxCandidates = 60
	p.ExecutePerJob = 5
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if a.Default.Err != nil {
		t.Fatal(a.Default.Err)
	}
	if len(a.Candidates) == 0 {
		t.Fatal("no candidates compiled")
	}
	if len(a.Selected) == 0 || len(a.Trials) != len(a.Selected) {
		t.Fatalf("selection/execution mismatch: %d selected, %d trials", len(a.Selected), len(a.Trials))
	}
	if len(a.Selected) > 5 {
		t.Fatalf("selected %d > ExecutePerJob", len(a.Selected))
	}
	// Selected plans have distinct signatures, none equal to the default.
	seen := map[bitvec.Key]bool{a.Default.Signature.Key(): true}
	for _, c := range a.Selected {
		if seen[c.Signature.Key()] {
			t.Fatal("selected duplicate or default-equal plan")
		}
		seen[c.Signature.Key()] = true
	}
	// BestConfig never loses to the default.
	best := a.BestConfig(steering.MetricRuntime)
	if best.Metrics.RuntimeSec > a.Default.Metrics.RuntimeSec {
		t.Fatal("BestConfig worse than default")
	}
}

func TestPercentChange(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(3))
	p.MaxCandidates = 20
	p.ExecutePerJob = 3
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PercentChange(&a.Default, steering.MetricRuntime); got != 0 {
		t.Fatalf("default vs default change %v", got)
	}
	for i := range a.Trials {
		pct := a.PercentChange(&a.Trials[i], steering.MetricRuntime)
		if pct < -100 {
			t.Fatalf("percentage gain below -100%%: %v", pct)
		}
	}
}

func TestGrouperGroupsConsistently(t *testing.T) {
	w := workload.Generate(workload.ProfileB(0.002, 5))
	h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 7)
	g := steering.NewGrouper(h)
	jobs := w.Day(0)
	groups, err := g.Group(jobs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, grp := range groups {
		total += len(grp.Jobs)
		for _, j := range grp.Jobs {
			sig, err := g.DefaultSignature(j)
			if err != nil {
				t.Fatal(err)
			}
			if !sig.Equal(grp.Signature) {
				t.Fatalf("job %s grouped under wrong signature", j.ID)
			}
		}
	}
	if total != len(jobs) {
		t.Fatalf("groups cover %d of %d jobs", total, len(jobs))
	}
	// Groups ordered by size.
	for i := 1; i < len(groups); i++ {
		if len(groups[i].Jobs) > len(groups[i-1].Jobs) {
			t.Fatal("groups not sorted by size")
		}
	}
}

// TestGrouperKeepsUnfingerprintedJobsApart: hand-built and scripted jobs
// carry all-zero hashes, so the Grouper must not deduplicate them by
// fingerprint — two different scripts keep two signatures, through Group
// and through DefaultSignature on one Grouper.
func TestGrouperKeepsUnfingerprintedJobsApart(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	a := steerJob(t, cat)
	const scanScript = `x = SELECT k, v FROM "f"; OUTPUT x TO "out/t";`
	root, err := scopeql.Compile(scanScript, cat)
	if err != nil {
		t.Fatal(err)
	}
	b := &workload.Job{ID: "test/j1", Root: root, Script: scanScript}
	sigOf := func(j *workload.Job) bitvec.Vector {
		t.Helper()
		sig, err := steering.NewGrouper(h).DefaultSignature(j)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	sa, sb := sigOf(a), sigOf(b)
	if sa.Equal(sb) {
		t.Fatal("the two scripts share a default signature; the test needs distinct ones")
	}

	groups, err := steering.NewGrouper(h).Group([]*workload.Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("Group returned %d groups, want 2", len(groups))
	}
	for _, grp := range groups {
		want := sa
		if grp.Jobs[0] == b {
			want = sb
		}
		if len(grp.Jobs) != 1 || !grp.Signature.Equal(want) {
			t.Fatalf("group of %s has %d jobs and another job's signature", grp.Jobs[0].ID, len(grp.Jobs))
		}
	}

	g := steering.NewGrouper(h)
	for _, tc := range []struct {
		job  *workload.Job
		want bitvec.Vector
	}{{a, sa}, {b, sb}} {
		sig, err := g.DefaultSignature(tc.job)
		if err != nil {
			t.Fatal(err)
		}
		if !sig.Equal(tc.want) {
			t.Fatalf("DefaultSignature(%s) on a shared Grouper returned another job's signature", tc.job.ID)
		}
	}
}
