package learning

import (
	"sync"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// benchDataset is one learn_groups group: the largest rule-signature group
// of ten Workload B days at scale 0.01, capped at 40 members, with the 4
// arms CandidateArms finds on 3 base jobs. Built once per test binary.
var benchDataset = sync.OnceValues(func() (*Dataset, error) {
	w := workload.Generate(workload.ProfileB(0.01, 2021))
	var jobs []*workload.Job
	for d := range 10 {
		jobs = append(jobs, w.Day(d)...)
	}
	h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 2022)
	groups, err := steering.NewGrouper(h).Group(jobs)
	if err != nil {
		return nil, err
	}
	g := groups[0]
	members := g.Jobs[:min(len(g.Jobs), 40)]
	p := steering.NewPipeline(h, xrand.New(2021).Derive("learn"))
	p.MaxCandidates, p.ExecutePerJob, p.Workers = 300, 10, 1
	arms, err := CandidateArms(p, members, 3, 4)
	if err != nil {
		return nil, err
	}
	return Collect(h, g.Signature, members, arms), nil
})

var benchSink *Model

func benchModel(b *testing.B) (*Dataset, Split, *Model) {
	ds, err := benchDataset()
	if err != nil {
		b.Fatal(err)
	}
	split := NewSplit(len(ds.Examples), xrand.New(2021).Derive("split"))
	return ds, split, Train(ds, split, DefaultTrainOptions(), xrand.New(2021).Derive("train"))
}

// BenchmarkTrainModel is one group's Train at the default options: both
// epoch budgets, fitted on par.Workers(0) goroutines.
func BenchmarkTrainModel(b *testing.B) {
	ds, split, m := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		benchSink = Train(ds, split, DefaultTrainOptions(), xrand.New(2021).Derive("train"))
	}
	b.ReportMetric(float64(len(split.Train)), "examples")
	b.ReportMetric(float64(m.Enc.Width()), "features")
}

// BenchmarkSaveLoad is one Save and one Load of that group's model.
func BenchmarkSaveLoad(b *testing.B) {
	_, _, m := benchModel(b)
	data, err := m.Save()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		data, err := m.Save()
		if err != nil {
			b.Fatal(err)
		}
		if benchSink, err = Load(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "model_bytes")
}
