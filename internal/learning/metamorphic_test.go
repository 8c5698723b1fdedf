package learning

import (
	"bytes"
	"hash/fnv"
	"testing"

	"steerq/internal/xrand"
)

// TestTrainBitDeterministic: the full learning pipeline — split, feature
// fitting, epoch-budget selection, Adam training — is a pure function of
// (dataset, options, seed). Two runs from equal seeds must serialize to
// byte-identical models.
func TestTrainBitDeterministic(t *testing.T) {
	ds, _ := groupFixture(t)
	if len(ds.Examples) < 15 {
		t.Skipf("group too small for a split: %d examples", len(ds.Examples))
	}
	opts := DefaultTrainOptions()
	opts.Hidden = 8
	opts.NN.Epochs = 30

	train := func() []byte {
		split := NewSplit(len(ds.Examples), xrand.New(5))
		model := Train(ds, split, opts, xrand.New(6))
		data, err := model.Save()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := train(), train()
	if !bytes.Equal(a, b) {
		t.Fatal("two identically seeded training runs serialized differently")
	}
}

// TestSplitDeterministicAndSeedSensitive: equal (n, seed) reproduces the
// split exactly; a different seed permutes it (same sizes, same partition
// property, different membership).
func TestSplitDeterministicAndSeedSensitive(t *testing.T) {
	same := func(a, b Split) bool {
		eq := func(x, y []int) bool {
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		return eq(a.Train, b.Train) && eq(a.Val, b.Val) && eq(a.Test, b.Test)
	}
	a := NewSplit(80, xrand.New(3))
	b := NewSplit(80, xrand.New(3))
	if !same(a, b) {
		t.Fatal("same seed produced different splits")
	}
	c := NewSplit(80, xrand.New(4))
	if same(a, c) {
		t.Fatal("different seeds produced identical splits (suspicious)")
	}
	for _, s := range []Split{a, c} {
		seen := make(map[int]bool)
		for _, idx := range [][]int{s.Train, s.Val, s.Test} {
			for _, i := range idx {
				if i < 0 || i >= 80 || seen[i] {
					t.Fatalf("split is not a partition at index %d", i)
				}
				seen[i] = true
			}
		}
		if len(seen) != 80 {
			t.Fatalf("split covers %d of 80", len(seen))
		}
	}
}

// TestNormalizeTargetsShiftInvariant: adding a constant to every valid
// runtime must not change the normalized targets — normalization is min-max
// over the valid arms, so only relative spacing matters.
func TestNormalizeTargetsShiftInvariant(t *testing.T) {
	base := []float64{120, 240, -1, 180, 300}
	shifted := make([]float64, len(base))
	for i, v := range base {
		if v < 0 {
			shifted[i] = v
			continue
		}
		shifted[i] = v + 1000
	}
	y1, m1 := normalizeTargets(base)
	y2, m2 := normalizeTargets(shifted)
	for i := range y1 {
		if m1[i] != m2[i] {
			t.Fatalf("mask changed under shift at %d", i)
		}
		if !m1[i] {
			continue
		}
		if d := y1[i] - y2[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("normalized target %d changed under shift: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// goldenSavedModel is the FNV-1a 64 hash of Model.Save() for the model
// TestTrainEvaluateEndToEnd trains (same fixture, split, options and seed),
// recorded on the commit before the training-kernel rewrite (89ab94a,
// linux/amd64). It pins the whole learned path — Fit, Encode, sample
// building, budget selection, the nn kernel and serialization — to the bytes
// the old code produced.
const goldenSavedModel = 0xb4617769de7a2c57

func TestSavedModelGolden(t *testing.T) {
	ds, _ := groupFixture(t)
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 16
	opts.NN.Epochs = 60
	data, err := Train(ds, split, opts, xrand.New(6)).Save()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	if got := h.Sum64(); got != goldenSavedModel {
		t.Fatalf("saved model hash %#016x, golden %#016x", got, uint64(goldenSavedModel))
	}
}
