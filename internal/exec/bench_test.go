package exec_test

import (
	"testing"

	"steerq/internal/exec"
	"steerq/internal/workload"
)

var benchSink float64

// The discover_* benchmark's plan shapes: Workload A at scale 0.01, every
// day-0 job under its default and candidate configurations, one simulated
// execution per iteration.
func benchCorpus(b *testing.B) (*exec.Executor, []goldenPlan) {
	w, corpus := goldenCorpus(b, workload.ProfileA(0.01, 7))
	b.ReportAllocs()
	b.ResetTimer()
	return exec.New(w.Cat, 7), corpus
}

func BenchmarkRun(b *testing.B) {
	x, corpus := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		g := corpus[i%len(corpus)]
		benchSink = x.Run(g.plan, 0, g.tag).RuntimeSec
	}
}

func BenchmarkExplain(b *testing.B) {
	x, corpus := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		g := corpus[i%len(corpus)]
		benchSink = x.Explain(g.plan, 0, g.tag).Metrics.RuntimeSec
	}
}

// BenchmarkRunPrepared is the re-execution of a kept plan: each corpus plan
// is prepared once, before the timer starts, and every iteration runs one.
func BenchmarkRunPrepared(b *testing.B) {
	w, corpus := goldenCorpus(b, workload.ProfileA(0.01, 7))
	x := exec.New(w.Cat, 7)
	prs := make([]*exec.Prepared, len(corpus))
	for i, g := range corpus {
		prs[i] = x.Prepare(g.plan, 0, g.tag)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(corpus)
		benchSink = x.RunPrepared(prs[j], corpus[j].tag).RuntimeSec
	}
}
