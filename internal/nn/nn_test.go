package nn

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"steerq/internal/xrand"
)

func TestForwardShapesAndRange(t *testing.T) {
	n := New(4, 8, 3, xrand.New(1))
	out := n.Forward([]float64{0.1, 0.5, 0.9, 0})
	if len(out) != 3 {
		t.Fatalf("output width %d", len(out))
	}
	for _, v := range out {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output %v outside (0,1)", v)
		}
	}
}

func TestForwardOutputsBounded(t *testing.T) {
	n := New(6, 16, 4, xrand.New(2))
	f := func(raw [6]float64) bool {
		x := make([]float64, 6)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = math.Mod(v, 10)
		}
		for _, v := range n.Forward(x) {
			// Sigmoid outputs live in (0, 1) mathematically but round to
			// the closed interval in float64 for extreme activations.
			if !(v >= 0 && v <= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := New(4, 8, 2, xrand.New(7))
	b := New(4, 8, 2, xrand.New(7))
	x := []float64{1, 0, 0.5, 0.2}
	oa := a.Forward(x)
	ob := b.Forward(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed, different networks")
		}
	}
}

// rankingTask builds samples where the correct arm is determined by the
// first feature: x[0] < 0.5 means arm 0 is fastest, otherwise arm 1.
func rankingTask(n int, r *xrand.Source) []Sample {
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		x := []float64{r.Float64(), r.Float64()}
		y := []float64{0, 1}
		if x[0] >= 0.5 {
			y = []float64{1, 0}
		}
		out = append(out, Sample{X: x, Y: y})
	}
	return out
}

func TestTrainingLearnsRanking(t *testing.T) {
	r := xrand.New(11)
	train := rankingTask(200, r.Derive("train"))
	test := rankingTask(100, r.Derive("test"))

	net := New(2, 16, 2, r.Derive("init"))
	before := net.BCELoss(test)
	cfg := TrainConfig{Epochs: 120, BatchSize: 16, LR: 5e-3}
	net.Train(train, cfg, r.Derive("sgd"))
	after := net.BCELoss(test)
	if after >= before {
		t.Fatalf("training did not reduce loss: %v -> %v", before, after)
	}
	// The argmin choice must be right most of the time.
	correct := 0
	for _, s := range test {
		out := net.Forward(s.X)
		pred := 0
		if out[1] < out[0] {
			pred = 1
		}
		truth := 0
		if s.Y[1] < s.Y[0] {
			truth = 1
		}
		if pred == truth {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(test)); frac < 0.85 {
		t.Fatalf("ranking accuracy %.2f after training", frac)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	r1 := xrand.New(13)
	net1 := New(2, 8, 2, r1.Derive("init"))
	net1.Train(rankingTask(50, r1.Derive("data")), TrainConfig{Epochs: 10, BatchSize: 8, LR: 1e-2}, r1.Derive("sgd"))

	r2 := xrand.New(13)
	net2 := New(2, 8, 2, r2.Derive("init"))
	net2.Train(rankingTask(50, r2.Derive("data")), TrainConfig{Epochs: 10, BatchSize: 8, LR: 1e-2}, r2.Derive("sgd"))

	x := []float64{0.3, 0.7}
	o1, o2 := net1.Forward(x), net2.Forward(x)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestMaskSkipsOutputs(t *testing.T) {
	r := xrand.New(17)
	net := New(2, 8, 3, r.Derive("init"))
	// Arm 2 is masked everywhere; training must still work on arms 0-1.
	samples := []Sample{
		{X: []float64{0.1, 0.2}, Y: []float64{0, 1, 0}, Mask: []bool{true, true, false}},
		{X: []float64{0.9, 0.2}, Y: []float64{1, 0, 0}, Mask: []bool{true, true, false}},
	}
	loss := net.Train(samples, TrainConfig{Epochs: 50, BatchSize: 2, LR: 1e-2}, r.Derive("sgd"))
	if math.IsNaN(loss) {
		t.Fatal("masked training produced NaN loss")
	}
}

func TestEmptyTraining(t *testing.T) {
	net := New(2, 4, 2, xrand.New(1))
	if got := net.Train(nil, TrainConfig{Epochs: 5, BatchSize: 4, LR: 1e-3}, xrand.New(2)); got != 0 {
		t.Fatalf("empty training returned loss %v", got)
	}
}

// decode is how a network is loaded: encoding/json, then Validate.
func decode(data []byte) (*Network, error) {
	var n Network
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}

func TestSerializationRoundTrip(t *testing.T) {
	r := xrand.New(19)
	net := New(3, 8, 2, r)
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	a, b := net.Forward(x), got.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round-tripped network differs")
		}
	}
	if _, err := decode([]byte("{bad")); err == nil {
		t.Fatal("decode accepted garbage")
	}
}

// TestTrainPartialConfig: a config with only Epochs set used to leave
// BatchSize at 0 and never advance through the epoch. Each zero field now
// takes its default on its own, so it trains exactly like the spelled-out
// config (L2 stays 0: no decay is a legal choice).
func TestTrainPartialConfig(t *testing.T) {
	train := func(cfg TrainConfig) []byte {
		r := xrand.New(23)
		net := New(2, 8, 2, r.Derive("init"))
		net.Train(rankingTask(40, r.Derive("data")), cfg, r.Derive("sgd"))
		data, err := json.Marshal(net)
		if err != nil {
			t.Error(err)
		}
		return data
	}
	done := make(chan []byte, 1)
	go func() { done <- train(TrainConfig{Epochs: 10}) }()
	select {
	case got := <-done:
		d := DefaultTrainConfig()
		if want := train(TrainConfig{Epochs: 10, BatchSize: d.BatchSize, LR: d.LR}); string(got) != string(want) {
			t.Fatal("partial config trained differently from the same config with defaults spelled out")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Train with TrainConfig{Epochs: 10} did not return")
	}
}

// TestTrainDecodedNetwork: a network decoded from JSON has separately
// allocated rows; Train copies them into its working copy and writes the
// result back through them, with the same bits as training the original.
func TestTrainDecodedNetwork(t *testing.T) {
	r := xrand.New(29)
	orig := New(3, 6, 2, r.Derive("init"))
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	samples := []Sample{
		{X: []float64{0.1, 0, 0.7}, Y: []float64{0, 1}},
		{X: []float64{0, 0.4, 0}, Y: []float64{1, 0}},
		{X: []float64{0.9, 0.2, 0.3}, Y: []float64{0.5, 0}, Mask: []bool{true, false}},
	}
	cfg := TrainConfig{Epochs: 25, BatchSize: 2, LR: 1e-2, L2: 1e-4}
	orig.Train(samples, cfg, r.Derive("sgd"))
	decoded.Train(samples, cfg, r.Derive("sgd"))
	a, _ := json.Marshal(orig)
	b, _ := json.Marshal(decoded)
	if string(a) != string(b) {
		t.Fatal("decoded network trained to different weights than the original")
	}
	// The exported views still are the parameters Train updated.
	for _, row := range decoded.W1 {
		for i := range row {
			row[i]++
		}
	}
	decoded.B2[1]++
	x := samples[2].X
	if was, now := orig.Forward(x), decoded.Forward(x); was[0] == now[0] || was[1] == now[1] {
		t.Fatalf("exported views are detached from the trained parameters: %v then %v", was, now)
	}
}

// TestUnmarshalRejectsMalformed: a decoded network with inconsistent
// dimensions fails Validate with ErrShape; a non-finite weight fails the
// decoder itself.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	good, err := json.Marshal(New(3, 2, 2, xrand.New(31)))
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(edit func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	row := func(m map[string]any, key string, i int) []any { return m[key].([]any)[i].([]any) }
	cases := []struct {
		name  string
		data  []byte
		shape bool // the error wraps ErrShape
	}{
		{"zero input width", tamper(func(m map[string]any) { m["In"] = 0 }), true},
		{"negative hidden width", tamper(func(m map[string]any) { m["Hidden"] = -2 }), true},
		{"zero outputs", tamper(func(m map[string]any) { m["Out"] = 0 }), true},
		{"missing w1 row", tamper(func(m map[string]any) { m["w1"] = m["w1"].([]any)[:1] }), true},
		{"short w1 row", tamper(func(m map[string]any) { m["w1"].([]any)[1] = row(m, "w1", 1)[:2] }), true},
		{"long w2 row", tamper(func(m map[string]any) { m["w2"].([]any)[0] = append(row(m, "w2", 0), 0.5) }), true},
		{"extra w2 row", tamper(func(m map[string]any) { m["w2"] = append(m["w2"].([]any), row(m, "w2", 0)) }), true},
		{"short b1", tamper(func(m map[string]any) { m["b1"] = []any{0.0} }), true},
		{"missing b2", tamper(func(m map[string]any) { delete(m, "b2") }), true},
		{"non-finite weight", bytes.Replace(good, []byte(`"b1":[0,`), []byte(`"b1":[1e999,`), 1), false},
	}
	for _, c := range cases {
		if bytes.Equal(c.data, good) {
			t.Fatalf("%s: tampering left the file unchanged", c.name)
		}
		_, err := decode(c.data)
		if err == nil {
			t.Errorf("%s: loaded without error", c.name)
		} else if errors.Is(err, ErrShape) != c.shape {
			t.Errorf("%s: errors.Is(err, ErrShape) = %v for %v", c.name, !c.shape, err)
		}
	}
}

// TestTrainAllocationBudget: everything Train allocates, it allocates before
// the first epoch, so a 200-epoch run allocates exactly what a 10-epoch run
// does.
func TestTrainAllocationBudget(t *testing.T) {
	r := xrand.New(37)
	samples := rankingTask(40, r.Derive("data"))
	samples[3].Mask = []bool{true, false}
	allocs := func(epochs int) float64 {
		cfg := TrainConfig{Epochs: epochs, BatchSize: 16, LR: 1e-3, L2: 1e-5}
		return testing.AllocsPerRun(5, func() {
			New(2, 16, 2, r.Derive("init")).Train(samples, cfg, r.Derive("sgd"))
		})
	}
	short, long := allocs(10), allocs(200)
	if short != long {
		t.Fatalf("Train allocated %v times over 10 epochs and %v over 200: the epoch loop allocates", short, long)
	}
}

func TestForwardAllocationFree(t *testing.T) {
	net := New(6, 16, 4, xrand.New(41))
	xs := [][]float64{{0.1, 0, 0, 1, 0, 0.3}, {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1}}
	var e Eval
	for _, x := range xs { // warm the scratch up, and check it against Forward
		want := net.Forward(x)
		if got := net.ForwardInto(&e, x); !slices.Equal(got, want) {
			t.Fatalf("ForwardInto(%v) = %v, Forward = %v", x, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, x := range xs {
			net.ForwardInto(&e, x)
		}
	}); allocs != 0 {
		t.Fatalf("ForwardInto with a warm Eval allocated %v times per run, want 0", allocs)
	}
}
