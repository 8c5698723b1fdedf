package nn_test

import (
	"hash/fnv"
	"testing"

	"steerq/internal/nn"
	"steerq/internal/xrand"
)

// The training kernel's contract is bit identity with the loop it replaced
// (DESIGN.md, "Training kernel"): same floating-point operations, same order.
// These are the FNV-1a 64 hashes of Network.Marshal() after Train, recorded
// on the commit before the kernel rewrite (89ab94a, linux/amd64, where the Go
// compiler fuses no multiply-adds). A kernel change that moves one of them
// has changed the trained bits of every model in the repo.
const (
	goldenSparse = 0xfcc883753feeb95b
	goldenDense  = 0xfcc290144c3d92df
	goldenMasked = 0xd3aed73ca1d9be4b
)

// benchShapeSamples builds a training set at the learn_groups benchmark's
// shape — the layout feature.Encode produces: one continuous value, two
// 50-bin one-hots, a block of mostly-zero continuous slots and 0/1 bits —
// about 30 % dense.
func benchShapeSamples(n, in, out int, seed uint64) []nn.Sample {
	r := xrand.New(seed).Derive("bench-shape")
	samples := make([]nn.Sample, n)
	for s := range samples {
		x := make([]float64, in)
		x[0] = r.Float64()
		x[1+r.Intn(50)] = 1
		x[51+r.Intn(50)] = 1
		for i := 101; i < in; i++ {
			switch {
			case i < 140 && r.Bool(0.8):
				x[i] = r.Float64()
			case i >= 140 && r.Bool(0.5):
				x[i] = 1
			}
		}
		y := make([]float64, out)
		for o := range y {
			y[o] = r.Float64()
		}
		y[r.Intn(out)] = 0
		samples[s] = nn.Sample{X: x, Y: y}
	}
	return samples
}

func trainedHash(t *testing.T, in, hidden, out int, samples []nn.Sample, cfg nn.TrainConfig, seed uint64) uint64 {
	t.Helper()
	root := xrand.New(seed)
	net := nn.New(in, hidden, out, root.Derive("init"))
	net.Train(samples, cfg, root.Derive("train"))
	data, err := net.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

func TestTrainedWeightsGolden(t *testing.T) {
	masked := synthSamples(21, 9, 4, 31)
	for s := range masked {
		switch s % 3 {
		case 0:
			masked[s].Mask = []bool{true, false, true, s%2 == 0}
		case 1:
			masked[s].Mask = []bool{s%2 == 0, true, true, false}
		}
	}
	masked[5].Mask = []bool{false, false, false, false}

	cases := []struct {
		name            string
		in, hidden, out int
		samples         []nn.Sample
		cfg             nn.TrainConfig
		seed            uint64
		want            uint64
	}{
		// The benchmark shape: sparse one-hot inputs, one batch per epoch.
		{"sparse", 180, 64, 4, benchShapeSamples(16, 180, 4, 7), nn.TrainConfig{Epochs: 100, BatchSize: 16, LR: 1e-3, L2: 1e-5}, 7, goldenSparse},
		// Dense inputs, several batches per epoch, a short last batch.
		{"dense", 12, 10, 3, synthSamples(37, 12, 3, 3), nn.TrainConfig{Epochs: 40, BatchSize: 8, LR: 5e-3, L2: 1e-4}, 11, goldenDense},
		// Masked outputs (one sample fully masked), no weight decay.
		{"masked", 9, 7, 4, masked, nn.TrainConfig{Epochs: 50, BatchSize: 5, LR: 1e-2}, 13, goldenMasked},
	}
	for _, c := range cases {
		if got := trainedHash(t, c.in, c.hidden, c.out, c.samples, c.cfg, c.seed); got != c.want {
			t.Errorf("%s: trained weights hash %#016x, golden %#016x", c.name, got, c.want)
		}
	}
}
