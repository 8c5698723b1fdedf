package nn

import (
	"encoding/json"
	"math"
	"testing"

	"steerq/internal/xrand"
)

// synthSamples builds a deterministic synthetic training set where the target
// of each output is a smooth function of the inputs — learnable but not
// trivially constant.
func synthSamples(n, in, out int, seed uint64) []Sample {
	r := xrand.New(seed).Derive("synth")
	samples := make([]Sample, n)
	for s := range samples {
		x := make([]float64, in)
		for i := range x {
			x[i] = r.Uniform(-1, 1)
		}
		y := make([]float64, out)
		for o := range y {
			v := 0.0
			for i, xi := range x {
				if (i+o)%2 == 0 {
					v += xi
				} else {
					v -= xi
				}
			}
			y[o] = 1 / (1 + math.Exp(-v)) // separable-ish smooth target in (0, 1)
		}
		samples[s] = Sample{X: x, Y: y}
	}
	return samples
}

// TestGradientsMatchFiniteDifference is the metamorphic anchor of the
// backprop refactor: the analytic gradient returned by Gradients must agree
// with a central finite difference of BCELoss at every probed parameter.
func TestGradientsMatchFiniteDifference(t *testing.T) {
	const in, hidden, out = 4, 5, 3
	net := New(in, hidden, out, xrand.New(7).Derive("init"))
	samples := synthSamples(12, in, out, 21)
	// Mask a few outputs so the masked path is under test too.
	samples[0].Mask = []bool{true, false, true}
	samples[3].Mask = []bool{false, true, true}

	gw1, gb1, gw2, gb2 := net.Gradients(samples)

	const eps = 1e-6
	check := func(name string, w *float64, analytic float64) {
		t.Helper()
		orig := *w
		*w = orig + eps
		up := net.BCELoss(samples)
		*w = orig - eps
		down := net.BCELoss(samples)
		*w = orig
		numeric := (up - down) / (2 * eps)
		if diff := math.Abs(numeric - analytic); diff > 1e-5 && diff > 1e-3*math.Abs(numeric) {
			t.Errorf("%s: analytic gradient %g, finite difference %g (diff %g)", name, analytic, numeric, diff)
		}
	}
	for h := 0; h < hidden; h++ {
		for i := 0; i < in; i++ {
			check("W1", &net.W1[h][i], gw1[h][i])
		}
		check("B1", &net.B1[h], gb1[h])
	}
	for o := 0; o < out; o++ {
		for h := 0; h < hidden; h++ {
			check("W2", &net.W2[o][h], gw2[o][h])
		}
		check("B2", &net.B2[o], gb2[o])
	}
}

func TestGradientsAllMaskedAreZero(t *testing.T) {
	net := New(3, 4, 2, xrand.New(9).Derive("init"))
	samples := synthSamples(5, 3, 2, 5)
	for i := range samples {
		samples[i].Mask = []bool{false, false}
	}
	gw1, gb1, gw2, gb2 := net.Gradients(samples)
	for h := range gw1 {
		for i := range gw1[h] {
			if gw1[h][i] != 0 {
				t.Fatalf("gw1[%d][%d] = %g on all-masked set, want 0", h, i, gw1[h][i])
			}
		}
		if gb1[h] != 0 {
			t.Fatalf("gb1[%d] = %g on all-masked set, want 0", h, gb1[h])
		}
	}
	for o := range gw2 {
		for h := range gw2[o] {
			if gw2[o][h] != 0 {
				t.Fatalf("gw2[%d][%d] = %g on all-masked set, want 0", o, h, gw2[o][h])
			}
		}
		if gb2[o] != 0 {
			t.Fatalf("gb2[%d] = %g on all-masked set, want 0", o, gb2[o])
		}
	}
}

// TestLossDecreasesOnSeparableSet trains on a cleanly separable synthetic set
// and asserts training drives the BCE loss well below its starting point, and
// that a larger epoch budget does not end up meaningfully worse.
func TestLossDecreasesOnSeparableSet(t *testing.T) {
	const in, out = 4, 2
	// Separable: output o is 1 exactly when x[o] > 0.
	r := xrand.New(3).Derive("sep")
	samples := make([]Sample, 64)
	for s := range samples {
		x := make([]float64, in)
		for i := range x {
			x[i] = r.Uniform(-1, 1)
		}
		y := make([]float64, out)
		for o := range y {
			if x[o] > 0 {
				y[o] = 1
			}
		}
		samples[s] = Sample{X: x, Y: y}
	}

	train := func(epochs int) float64 {
		net := New(in, 8, out, xrand.New(11).Derive("init"))
		cfg := TrainConfig{Epochs: epochs, BatchSize: 16, LR: 1e-2, L2: 0}
		net.Train(samples, cfg, xrand.New(11).Derive("train"))
		return net.BCELoss(samples)
	}

	initial := New(in, 8, out, xrand.New(11).Derive("init")).BCELoss(samples)
	short := train(40)
	long := train(160)
	if short >= initial {
		t.Fatalf("loss did not decrease: initial %.4f, after 40 epochs %.4f", initial, short)
	}
	if long > short+0.02 {
		t.Fatalf("longer training regressed: 40 epochs %.4f, 160 epochs %.4f", short, long)
	}
	if long > 0.25 {
		t.Fatalf("separable set not learned: loss %.4f after 160 epochs", long)
	}
}

// TestTrainingReseedDerivedBitIdentical: repositioning a scratch source with
// ReseedDerivedBytes must train the exact same model, bit for bit, as a
// source built with Derive — training is a pure function of (samples, config,
// RNG stream), not of how the stream object was obtained.
func TestTrainingReseedDerivedBitIdentical(t *testing.T) {
	const in, hidden, out = 5, 6, 3
	samples := synthSamples(24, in, out, 77)
	cfg := TrainConfig{Epochs: 30, BatchSize: 8, LR: 1e-3, L2: 1e-5}

	root := xrand.New(42)
	a := New(in, hidden, out, root.Derive("init", ""))
	lossA := a.Train(samples, cfg, root.Derive("train", "epochs"))

	scratch := xrand.New(0)
	root.ReseedDerivedBytes(scratch, "init", nil)
	b := New(in, hidden, out, scratch)
	root.ReseedDerivedBytes(scratch, "train", []byte("epochs"))
	lossB := b.Train(samples, cfg, scratch)

	if lossA != lossB {
		t.Fatalf("training loss differs: Derive %v, ReseedDerivedBytes %v", lossA, lossB)
	}
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("trained models differ bit-for-bit between Derive and ReseedDerivedBytes streams")
	}
}

// TestBCELossPermutationInvariant: the averaged loss is a function of the
// sample multiset, not its order (up to float summation error).
func TestBCELossPermutationInvariant(t *testing.T) {
	const in, out = 4, 2
	net := New(in, 6, out, xrand.New(5).Derive("init"))
	samples := synthSamples(40, in, out, 13)
	base := net.BCELoss(samples)

	perm := xrand.New(99).Derive("perm").Perm(len(samples))
	shuffled := make([]Sample, len(samples))
	for i, p := range perm {
		shuffled[i] = samples[p]
	}
	got := net.BCELoss(shuffled)
	if math.Abs(got-base) > 1e-12 {
		t.Fatalf("BCELoss changed under permutation: %v vs %v", base, got)
	}
}
