package nn

import (
	"testing"

	"steerq/internal/xrand"
)

// The learn_groups benchmark's shape: ~180 encoded features, the default 64
// hidden units, 4 arms, a 16-example train split, the default 200 epochs.
const benchIn, benchHidden, benchOut, benchSamples = 180, 64, 4, 16

var benchSink float64

func BenchmarkTrain(b *testing.B) {
	samples := benchShapeSamples(benchSamples, benchIn, benchOut, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := New(benchIn, benchHidden, benchOut, xrand.New(7).Derive("init"))
		benchSink = net.Train(samples, DefaultTrainConfig(), xrand.New(7).Derive("train"))
	}
}

func BenchmarkForward(b *testing.B) {
	samples := benchShapeSamples(benchSamples, benchIn, benchOut, 7)
	net := New(benchIn, benchHidden, benchOut, xrand.New(7).Derive("init"))
	var e Eval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = net.ForwardInto(&e, samples[i%len(samples)].X)[0]
	}
}
