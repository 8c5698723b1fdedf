package exec_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/exec"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// goldenPlan is one compiled (job, configuration) pair of the golden corpus.
type goldenPlan struct {
	tag  string
	plan *plan.PhysNode
}

// goldenCorpus compiles every day-0 job of the profile under the default
// configuration plus up to 8 seeded candidate configurations. Configurations
// that do not compile are skipped (many candidates legitimately do not, §4).
func goldenCorpus(tb testing.TB, p workload.Profile) (*workload.Workload, []goldenPlan) {
	tb.Helper()
	w := workload.Generate(p)
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	var out []goldenPlan
	for _, j := range w.Day(0) {
		cfgs := []bitvec.Vector{opt.Rules.DefaultConfig()}
		span, err := steering.JobSpan(opt, j.Root)
		if err != nil {
			tb.Fatalf("span of %s: %v", j.ID, err)
		}
		cfgs = append(cfgs, steering.CandidateConfigs(span, opt.Rules, 8, xrand.New(7).Derive("golden", j.ID))...)
		for i, cfg := range cfgs {
			res, err := opt.Optimize(j.Root, cfg)
			if err != nil {
				continue
			}
			out = append(out, goldenPlan{tag: fmt.Sprintf("%s/cfg%d", j.ID, i), plan: res.Plan})
		}
	}
	return w, out
}

// metricsHash folds the raw IEEE bits of all six Metrics fields into a
// running FNV-1a 64.
func metricsHash(h uint64, m exec.Metrics) uint64 {
	for _, v := range [...]uint64{
		math.Float64bits(m.RuntimeSec), math.Float64bits(m.CPUSec), math.Float64bits(m.IOTimeSec),
		math.Float64bits(m.IOBytes), uint64(m.Vertices), math.Float64bits(m.VertexSeconds),
	} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * uint(i))))
			h *= 1099511628211
		}
	}
	return h
}

// TestMetricsGolden pins every exec.Metrics bit of a fixed corpus. The
// constants were captured on commit cbdc289 (linux/amd64), before the
// single-walk simulator replaced the two-pass one: any reordering of a float
// sum, any change to a noise seed or to the skew fan-out moves them. They
// were re-derived in the change after commit 335f664, when a scan's degree of
// parallelism began to be sized on its stream's bytes rather than rows² ×
// bytes per row: the corpus's plans moved, the simulator did not.
func TestMetricsGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile workload.Profile
		runs    int
		want    uint64
	}{
		{"A", workload.ProfileA(0.01, 7), goldenRunsA, goldenHashA},
		{"B", workload.ProfileB(0.01, 7), goldenRunsB, goldenHashB},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, corpus := goldenCorpus(t, tc.profile)
			x := exec.New(w.Cat, 7)
			h, runs := uint64(14695981039346656037), 0
			for _, g := range corpus {
				for _, day := range []int{0, 3} {
					m := x.Run(g.plan, day, g.tag)
					if rep := x.Explain(g.plan, day, g.tag); rep.Metrics != m {
						t.Fatalf("%s day %d: Explain metrics %+v, Run %+v", g.tag, day, rep.Metrics, m)
					}
					h = metricsHash(h, m)
					runs++
				}
			}
			if runs != tc.runs || h != tc.want {
				t.Fatalf("workload %s: %d runs hash %#x, want %d runs hash %#x", tc.name, runs, h, tc.runs, tc.want)
			}
		})
	}
}

const (
	goldenRunsA, goldenHashA = 10738, uint64(0x42db09e5c3f2e963)
	goldenRunsB, goldenHashB = 1962, uint64(0xf3280071654a82f)
)

// metricsBits is every bit of m, NaNs included.
func metricsBits(m exec.Metrics) [6]uint64 {
	return [6]uint64{
		math.Float64bits(m.RuntimeSec), math.Float64bits(m.CPUSec), math.Float64bits(m.IOTimeSec),
		math.Float64bits(m.IOBytes), uint64(m.Vertices), math.Float64bits(m.VertexSeconds),
	}
}

// TestPreparedMatchesRun: over TestMetricsGolden's corpus, on both of its
// days, a plan prepared once and run under three tags reads exactly Run's
// metrics under each, and Explain reads them under a tag other than the
// one TestMetricsGolden explains. Then eight goroutines run
// a sample of the retained Prepareds at once, and every run agrees with the
// serial one. Run with -race.
func TestPreparedMatchesRun(t *testing.T) {
	type run struct {
		pr   *exec.Prepared
		tag  string
		want [6]uint64
	}
	var sample []run
	for _, profile := range []workload.Profile{workload.ProfileA(0.01, 7), workload.ProfileB(0.01, 7)} {
		w, corpus := goldenCorpus(t, profile)
		x := exec.New(w.Cat, 7)
		for i, g := range corpus {
			for _, day := range []int{0, 3} {
				pr := x.Prepare(g.plan, day, g.tag)
				for r, tag := range [...]string{g.tag, g.tag + "/rerun1", g.tag + "/rerun2"} {
					want := metricsBits(x.Run(g.plan, day, tag))
					if got := metricsBits(x.RunPrepared(pr, tag)); got != want {
						t.Fatalf("%s day %d: prepared run %v, Run %v", tag, day, got, want)
					}
					if r != 1 {
						continue
					}
					if got := metricsBits(x.Explain(g.plan, day, tag).Metrics); got != want {
						t.Fatalf("%s day %d: Explain %v, Run %v", tag, day, got, want)
					}
					if i%97 == 0 {
						sample = append(sample, run{pr, tag, want})
					}
				}
			}
		}
		if len(sample) < 20 {
			t.Fatalf("%d sampled runs; test is vacuous", len(sample))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range sample {
					if got := metricsBits(x.RunPrepared(r.pr, r.tag)); got != r.want {
						t.Errorf("%s: concurrent prepared run %v, serial %v", r.tag, got, r.want)
					}
				}
			}()
		}
		wg.Wait()
		sample = sample[:0]
	}
}
