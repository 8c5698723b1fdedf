package workload

import (
	"fmt"
	"math"
	"strings"

	"steerq/internal/catalog"
	"steerq/internal/rules"
	"steerq/internal/xrand"
)

// Profile parameterizes one workload generator. The three built-in profiles
// (A, B, C) differ in scale, shape mix and size distribution the way the
// paper's three production workloads differ.
type Profile struct {
	Name string
	Seed uint64

	// Scale multiplies the paper's daily job counts (1.0 = 95K jobs/day
	// for A). The default experiments use 0.01.
	Scale float64

	// JobsPerDayFull is the paper-scale daily job count.
	JobsPerDayFull int
	// TemplatesFull is the paper-scale template count.
	TemplatesFull int

	// FactStreamsPerTemplate and DimStreams size the data lake.
	FactStreamsPerTemplate float64
	DimStreams             int

	// SizeMu/SizeSigma parameterize the log-normal fact-stream row counts.
	SizeMu, SizeSigma float64

	// HeavyTemplateFrac is the fraction of templates that recur many times
	// per day (the recurring pipelines behind Figure 1).
	HeavyTemplateFrac float64
	HeavyWeight       float64

	// ShapeWeights orders: cookRaw, joinAgg, multiJoin, unionCook,
	// reduceJob, topDash, multiOut, unionProcess.
	ShapeWeights []float64
}

// ZipfProbs returns the Zipf(s) popularity law over ranks 1..n as a
// probability vector: prob[k] ∝ (k+1)^-s, normalized to sum to 1. The serving
// benchmark draws its request signatures from it. s=0 is the uniform limit.
func ZipfProbs(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Shape names, indexing ShapeWeights.
var shapeNames = []string{
	"cookRaw", "joinAgg", "multiJoin", "unionCook",
	"reduceJob", "topDash", "multiOut", "unionProcess",
}

// ProfileA mirrors Workload A: the largest and most heterogeneous workload.
func ProfileA(scale float64, seed uint64) Profile {
	return Profile{
		Name: "A", Seed: seed, Scale: scale,
		JobsPerDayFull: 95000, TemplatesFull: 48000,
		FactStreamsPerTemplate: 0.55, DimStreams: 40,
		SizeMu: math.Log(2.5e8), SizeSigma: 1.9,
		HeavyTemplateFrac: 0.015, HeavyWeight: 40,
		ShapeWeights: []float64{2, 3, 2, 2.5, 1.5, 1.5, 1, 1.5},
	}
}

// ProfileB mirrors Workload B: smaller, more homogeneous (15K jobs map to
// only 837 rule signatures), with heavily recurring pipelines.
func ProfileB(scale float64, seed uint64) Profile {
	return Profile{
		Name: "B", Seed: seed, Scale: scale,
		JobsPerDayFull: 15000, TemplatesFull: 10500,
		FactStreamsPerTemplate: 0.5, DimStreams: 16,
		SizeMu: math.Log(4e8), SizeSigma: 1.5,
		HeavyTemplateFrac: 0.05, HeavyWeight: 25,
		ShapeWeights: []float64{1, 4, 2, 3, 0.5, 1, 0.5, 2},
	}
}

// ProfileC mirrors Workload C: mid-sized with longer-running jobs (so
// percentage improvements are smaller, §6.2).
func ProfileC(scale float64, seed uint64) Profile {
	return Profile{
		Name: "C", Seed: seed, Scale: scale,
		JobsPerDayFull: 40000, TemplatesFull: 22000,
		FactStreamsPerTemplate: 0.5, DimStreams: 24,
		SizeMu: math.Log(1.2e9), SizeSigma: 1.3,
		HeavyTemplateFrac: 0.02, HeavyWeight: 30,
		ShapeWeights: []float64{1.5, 3, 2.5, 2, 1.5, 1.5, 1, 1.5},
	}
}

// Generate builds the workload for a profile: the data lake catalog and the
// template pool. Everything is deterministic in the profile's seed.
func Generate(p Profile) *Workload {
	r := xrand.New(p.Seed).Derive("workload", p.Name)
	g := &generator{profile: p, cat: catalog.New(), r: r}
	g.buildLake()
	w := &Workload{
		Name:       p.Name,
		Cat:        g.cat,
		JobsPerDay: max(1, int(float64(p.JobsPerDayFull)*p.Scale)),
		seed:       r.Derive("arrivals").Seed(),
	}
	nTemplates := max(1, int(float64(p.TemplatesFull)*p.Scale))
	for i := 0; i < nTemplates; i++ {
		w.Templates = append(w.Templates, g.buildTemplate(i))
	}
	return w
}

// keyDomain is a shared join-key domain of the lake.
type keyDomain struct {
	name     string
	distinct float64
	skew     float64 // skew of this key on fact streams
}

// factMeta and dimMeta describe generated streams for template construction.
type factMeta struct {
	name     string
	keys     []keyDomain // key columns present (by domain name)
	measures []string
	filters  []string // filterable low-cardinality columns
}

type dimMeta struct {
	name  string
	key   keyDomain
	attrs []string
}

type generator struct {
	profile Profile
	cat     *catalog.Catalog
	r       *xrand.Source

	domains []keyDomain
	facts   []factMeta
	dims    []dimMeta
	udos    []string
}

var measureNames = []string{"amount", "value", "latency_ms", "bytes_out", "duration", "score_raw"}
var filterNames = []string{"region", "day_part", "event_type", "platform", "tier", "market"}
var attrNames = []string{"segment", "grade", "category_name", "bucket", "cohort"}

func (g *generator) buildLake() {
	p := g.profile
	g.domains = []keyDomain{
		{"user_id", 5e5, 1.15},
		{"item_id", 1.2e5, 0.9},
		{"session_id", 4e6, 0.7},
		{"tenant_id", 2e3, 1.3},
		{"device_id", 8e5, 1.0},
		{"campaign_id", 3e4, 1.2},
	}
	nTemplates := max(1, int(float64(p.TemplatesFull)*p.Scale))
	nFacts := max(3, int(float64(nTemplates)*p.FactStreamsPerTemplate))

	for i := 0; i < nFacts; i++ {
		r := g.r.Derive("fact", fmt.Sprint(i))
		nKeys := 2 + r.Intn(2)
		keyIdx := r.Sample(len(g.domains), nKeys)
		var keys []keyDomain
		var cols []catalog.Column
		for _, ki := range keyIdx {
			d := g.domains[ki]
			skew := 0.0
			if r.Bool(0.6) {
				skew = d.skew * r.Uniform(0.7, 1.2)
			}
			keys = append(keys, d)
			cols = append(cols, catalog.Column{
				Name:         d.name,
				Distinct:     d.distinct * r.Uniform(0.7, 1.1),
				TrueDistinct: d.distinct,
				Min:          0, Max: d.distinct,
				Skew: skew,
			})
		}
		nMeasures := 2 + r.Intn(3)
		mi := r.Sample(len(measureNames), nMeasures)
		var measures []string
		for _, m := range mi {
			name := measureNames[m]
			measures = append(measures, name)
			cols = append(cols, catalog.Column{
				Name:         name,
				Distinct:     r.Uniform(5e3, 5e5),
				TrueDistinct: r.Uniform(5e3, 5e5),
				Min:          0, Max: r.Uniform(100, 10000),
			})
		}
		nFilters := 2 + r.Intn(2)
		fi := r.Sample(len(filterNames), nFilters)
		var filters []string
		for _, f := range fi {
			name := filterNames[f]
			card := r.Uniform(4, 60)
			filters = append(filters, name)
			cols = append(cols, catalog.Column{
				Name:         name,
				Distinct:     card,
				TrueDistinct: card,
				Min:          0, Max: card,
				Skew: pick(r, 0.6, r.Uniform(0.8, 1.4), 0),
			})
		}
		// Correlated filter pairs: the classic underestimate source.
		var corr []catalog.Correlation
		if len(filters) >= 2 && r.Bool(0.7) {
			corr = append(corr, catalog.Correlation{
				A: filters[0], B: filters[1], Factor: r.Uniform(4, 25),
			})
		}
		rows := math.Exp(r.Norm(p.SizeMu, p.SizeSigma))
		rows = clamp(rows, 2e5, 4e10)
		g.cat.AddStream(&catalog.Stream{
			Name:         fmt.Sprintf("lake/%s/fact_%03d", p.Name, i),
			Columns:      cols,
			BaseRows:     rows * r.Uniform(0.75, 1.15), // stats are stale
			DailySigma:   r.Uniform(0.1, 0.45),
			GrowthPerDay: r.Uniform(0.998, 1.012),
			BytesPerRow:  r.Uniform(40, 220),
			Correlations: corr,
		})
		g.facts = append(g.facts, factMeta{
			name:     fmt.Sprintf("lake/%s/fact_%03d", p.Name, i),
			keys:     keys,
			measures: measures,
			filters:  filters,
		})
	}

	for i := 0; i < p.DimStreams; i++ {
		r := g.r.Derive("dim", fmt.Sprint(i))
		d := g.domains[i%len(g.domains)]
		nAttrs := 2 + r.Intn(3)
		ai := r.Sample(len(attrNames), nAttrs)
		cols := []catalog.Column{{
			Name:         d.name,
			Distinct:     d.distinct,
			TrueDistinct: d.distinct,
			Min:          0, Max: d.distinct,
		}}
		var attrs []string
		for _, a := range ai {
			name := attrNames[a]
			card := r.Uniform(5, 400)
			attrs = append(attrs, name)
			cols = append(cols, catalog.Column{
				Name:         name,
				Distinct:     card,
				TrueDistinct: card,
				Min:          0, Max: card,
			})
		}
		g.cat.AddStream(&catalog.Stream{
			Name:         fmt.Sprintf("lake/%s/dim_%02d_%s", p.Name, i, d.name),
			Columns:      cols,
			BaseRows:     d.distinct * r.Uniform(0.9, 1.1),
			DailySigma:   0.02,
			GrowthPerDay: 1.0,
			BytesPerRow:  r.Uniform(30, 90),
		})
		g.dims = append(g.dims, dimMeta{
			name:  fmt.Sprintf("lake/%s/dim_%02d_%s", p.Name, i, d.name),
			key:   d,
			attrs: attrs,
		})
	}

	nUDOs := 18
	for i := 0; i < nUDOs; i++ {
		r := g.r.Derive("udo", fmt.Sprint(i))
		name := fmt.Sprintf("Udo%s%02d", p.Name, i)
		g.cat.AddUDO(&catalog.UDO{
			Name:      name,
			EstFactor: 1.0, // the optimizer's fixed guess for opaque code
			TrueFactor: clamp(
				math.Exp(r.Norm(0.2, 1.1)), 0.02, 15,
			),
			CPUPerRow: r.Uniform(1, 9),
		})
		g.udos = append(g.udos, name)
	}
}

func pick(r *xrand.Source, p float64, a, b float64) float64 {
	if r.Bool(p) {
		return a
	}
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// dimFor returns a dimension stream keyed by one of the fact's key domains;
// ok is false when none exists.
func (g *generator) dimFor(r *xrand.Source, f factMeta) (dimMeta, keyDomain, bool) {
	var cands []int
	for di, d := range g.dims {
		for _, k := range f.keys {
			if d.key.name == k.name {
				cands = append(cands, di)
			}
		}
	}
	if len(cands) == 0 {
		return dimMeta{}, keyDomain{}, false
	}
	d := g.dims[cands[r.Intn(len(cands))]]
	return d, d.key, true
}

// factsSharingKey returns up to n distinct facts that all carry the given key
// domain (for union shapes), always including `first`.
func (g *generator) factsSharingKey(r *xrand.Source, first factMeta, key keyDomain, n int) []factMeta {
	out := []factMeta{first}
	perm := r.Perm(len(g.facts))
	for _, fi := range perm {
		if len(out) >= n {
			break
		}
		f := g.facts[fi]
		if f.name == first.name {
			continue
		}
		for _, k := range f.keys {
			if k.name == key.name {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// buildTemplate freezes one recurring template: its shape, streams, columns
// and UDOs. Only literal constants vary per instance. A few templates carry
// customer hints enabling off-by-default rules suited to their shape —
// production workloads include such expert-tuned jobs (§3.2 footnote, §3.3),
// which is why the paper's Table 2 sees some off-by-default rules in use.
func (g *generator) buildTemplate(id int) *Template {
	r := g.r.Derive("template", fmt.Sprint(id))
	shape := shapeNames[r.Pick(g.profile.ShapeWeights)]
	weight := 1.0
	if r.Bool(g.profile.HeavyTemplateFrac) {
		weight = g.profile.HeavyWeight * r.Uniform(0.5, 1.5)
	}
	build := g.shapeBuilder(shape, r)
	var hints []int
	if r.Bool(0.08) {
		hints = customerHints(shape, r)
	}
	return &Template{ID: id, Shape: shape, build: build, weight: weight, hints: hints}
}

// customerHints picks off-by-default rules an expert might enable for the
// template's shape.
func customerHints(shape string, r *xrand.Source) []int {
	var pool []int
	switch shape {
	case "unionCook", "unionProcess":
		pool = []int{rules.IDCorrelatedJoinOnUnionAll1, rules.IDCorrelatedJoinOnUnionAll2, rules.IDCorrelatedJoinOnUnionAll3, rules.IDTopOnUnionAll}
	case "joinAgg", "multiJoin":
		pool = []int{rules.IDGroupbyOnJoin, rules.IDGroupbyOnJoinRight}
	default:
		pool = []int{rules.IDSelectSplitDisjunction, rules.IDGroupbyOnJoin}
	}
	n := 1 + r.Intn(2)
	idx := r.Sample(len(pool), n)
	out := make([]int, 0, n)
	for _, i := range idx {
		out = append(out, pool[i])
	}
	return out
}

// predSpec freezes a filterable predicate; render draws the constant.
type predSpec struct {
	col    string
	op     string
	lo, hi float64
	isEq   bool
}

func (g *generator) predsFor(r *xrand.Source, f factMeta, n int) []predSpec {
	var out []predSpec
	// One or two range predicates over measures, the rest equality over
	// filter columns.
	mi := r.Sample(len(f.measures), n)
	fi := r.Sample(len(f.filters), n)
	for i := 0; i < n; i++ {
		if i%2 == 0 && i/2 < len(mi) {
			m := f.measures[mi[i/2]]
			col := g.cat.Stream(f.name).Column(m)
			out = append(out, predSpec{col: m, op: ">", lo: col.Min, hi: col.Max})
		} else if (i-1)/2 < len(fi) {
			fc := f.filters[fi[(i-1)/2]]
			col := g.cat.Stream(f.name).Column(fc)
			out = append(out, predSpec{col: fc, op: "==", lo: col.Min, hi: col.Max, isEq: true})
		}
	}
	return out
}

func renderPreds(r *xrand.Source, preds []predSpec) string {
	parts := make([]string, 0, len(preds))
	for _, p := range preds {
		v := r.Uniform(p.lo, p.hi)
		if p.isEq {
			v = math.Floor(v)
		} else {
			// Bias thresholds toward selective tails.
			v = p.lo + (p.hi-p.lo)*math.Pow(r.Float64(), 0.35)
			v = math.Floor(v*100) / 100
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.col, p.op, fnum(v)))
	}
	return strings.Join(parts, " AND ")
}
