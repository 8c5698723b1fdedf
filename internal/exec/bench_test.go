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
