package nn

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"steerq/internal/xrand"
)

// savedModelFits is learning.TestSavedModelFitsRecorded's record of the
// trainings behind learning.TestSavedModelGolden's model: nn cannot import
// learning, so it trains them from testdata.
type savedModelFits struct {
	In, Hidden, Out int
	Seed            uint64
	Samples         []Sample
	Fits            []struct {
		Cfg         TrainConfig
		Init, Train []string
		Hash        uint64
	}
}

func loadSavedModelFits(t *testing.T) savedModelFits {
	t.Helper()
	data, err := os.ReadFile("testdata/saved_model_fits.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec savedModelFits
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Fits) == 0 {
		t.Fatal("testdata/saved_model_fits.json records no fits")
	}
	return rec
}

// TestKernelBodiesTrainRecordedBits trains every TestTrainedWeightsGolden
// case and every fit behind learning's saved-model golden twice: on the
// bodies the CPU check picked, then on the portable ones. Both runs must
// give the recorded hashes.
func TestKernelBodiesTrainRecordedBits(t *testing.T) {
	t.Logf("active kernel bodies: %s", active.name)
	rec := loadSavedModelFits(t)
	for _, k := range []kernels{active, portable} {
		for _, c := range goldenCases() {
			net, r := c.network()
			net.train(c.samples, c.cfg, r, k)
			if got := netHash(t, net); got != c.want {
				t.Errorf("%s bodies, %s: trained weights hash %#016x, golden %#016x", k.name, c.name, got, c.want)
			}
		}
		for _, f := range rec.Fits {
			root := xrand.New(rec.Seed)
			net := New(rec.In, rec.Hidden, rec.Out, root.Derive(f.Init...))
			net.train(rec.Samples, f.Cfg, root.Derive(f.Train...), k)
			if got := netHash(t, net); got != f.Hash {
				t.Errorf("%s bodies, saved-model fit %v: trained weights hash %#016x, recorded %#016x", k.name, f.Train, got, f.Hash)
			}
		}
	}
}

// TestTrainingForwardMatchesInference: the forward pass Train runs on its
// transposed working copy gives inference's row-major activations bit for
// bit, on every golden corpus, before and after training, on both body sets.
func TestTrainingForwardMatchesInference(t *testing.T) {
	type corpus struct {
		name    string
		net     *Network
		samples []Sample
		train   func()
	}
	var corpora []corpus
	for _, c := range goldenCases() {
		net, r := c.network()
		corpora = append(corpora, corpus{c.name, net, c.samples, func() { net.Train(c.samples, c.cfg, r) }})
	}
	rec := loadSavedModelFits(t)
	for _, f := range rec.Fits {
		root := xrand.New(rec.Seed)
		net := New(rec.In, rec.Hidden, rec.Out, root.Derive(f.Init...))
		corpora = append(corpora, corpus{"saved-model " + f.Init[1], net, rec.Samples, func() { net.Train(rec.Samples, f.Cfg, root.Derive(f.Train...)) }})
	}

	for _, c := range corpora {
		for _, stage := range []string{"untrained", "trained"} {
			if stage == "trained" {
				c.train()
			}
			n := c.net
			hidden, out := make([]float64, n.Hidden), make([]float64, n.Out)
			var x sparse
			for _, k := range []kernels{active, portable} {
				tr := n.newTrainer(c.samples, k)
				for si, s := range c.samples {
					x.load(s.X)
					n.forward(x, hidden, out)
					tr.forward(tr.xs[si])
					if !sameBits(tr.hidden, hidden) || !sameBits(tr.out, out) {
						t.Fatalf("%s (%s, %s bodies), sample %d: training forward %v %v, inference %v %v",
							c.name, stage, k.name, si, tr.hidden, tr.out, hidden, out)
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// fuzzValue draws from a mix of ordinary values and the edge cases of IEEE
// arithmetic: signed zeros, subnormals and magnitudes whose products
// overflow.
func fuzzValue(r *xrand.Source) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324 * float64(1-2*r.Intn(2)) // the smallest subnormal
	case 3:
		return r.Uniform(-1, 1) * 0x1p-1030 // a random subnormal
	case 4:
		return 1e300 * float64(1-2*r.Intn(2))
	case 5:
		return r.Norm(0, 1) * math.Pow(10, float64(r.Intn(40)-20))
	default:
		return r.Norm(0, 1)
	}
}

// FuzzKernelsMatchPortable compares the active kernel bodies with the
// portable ones bit for bit, at every length up to 67 (so every tail length
// after the 4-wide blocks) and over fuzzValue's edge cases.
func FuzzKernelsMatchPortable(f *testing.F) {
	for n := 0; n <= 67; n++ {
		f.Add(uint8(n), uint64(n), 1e-3, uint16(n))
	}
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, a float64, step uint16) {
		if math.IsNaN(a) {
			t.Skip("with two NaN operands, which payload survives depends on operand order, not on the arithmetic")
		}
		n %= 68
		r := xrand.New(seed)
		vec := func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = fuzzValue(r)
			}
			return v
		}

		x, y := vec(), vec()
		want := slices.Clone(y)
		active.axpy(y, x, a)
		portable.axpy(want, x, a)
		if !sameBits(y, want) {
			t.Fatalf("axpy(%v, %v, %v): %s %v, portable %v", want, x, a, active.name, y, want)
		}

		const beta1, beta2 = 0.9, 0.999
		s := float64(step) + 1
		c := &adamConsts{
			inv: 1 / float64(1+seed%32), l2: fuzzValue(r),
			beta1: beta1, omb1: 1 - beta1, beta2: beta2, omb2: 1 - beta2,
			c1: 1 - math.Pow(beta1, s), c2: 1 - math.Pow(beta2, s),
			lr: a, eps: 1e-8,
		}
		w, g, m, v := vec(), vec(), vec(), vec()
		w2, g2, m2, v2 := slices.Clone(w), slices.Clone(g), slices.Clone(m), slices.Clone(v)
		active.adam(w, g, m, v, c)
		portable.adam(w2, g2, m2, v2, c)
		for _, p := range [][2][]float64{{w, w2}, {g, g2}, {m, m2}, {v, v2}} {
			if !sameBits(p[0], p[1]) {
				t.Fatalf("adam (%+v): %s w=%v g=%v m=%v v=%v, portable w=%v g=%v m=%v v=%v", *c, active.name, w, g, m, v, w2, g2, m2, v2)
			}
		}
	})
}
