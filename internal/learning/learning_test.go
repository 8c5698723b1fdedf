package learning

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/nn"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func TestNormalizeTargets(t *testing.T) {
	y, mask := normalizeTargets([]float64{100, 200, -1, 150})
	if !mask[0] || !mask[1] || mask[2] || !mask[3] {
		t.Fatalf("mask wrong: %v", mask)
	}
	if y[0] != 0 || y[1] != 1 || y[3] != 0.5 {
		t.Fatalf("normalization wrong: %v", y)
	}
	// Uniform runtimes normalize to all zeros.
	y2, _ := normalizeTargets([]float64{50, 50})
	if y2[0] != 0 || y2[1] != 0 {
		t.Fatalf("constant runtimes normalized to %v", y2)
	}
}

func TestSplitProportions(t *testing.T) {
	s := NewSplit(100, xrand.New(1))
	if len(s.Val) != 20 || len(s.Train) != 40 || len(s.Test) != 40 {
		t.Fatalf("split sizes %d/%d/%d, want 40/20/40", len(s.Train), len(s.Val), len(s.Test))
	}
	seen := make(map[int]bool)
	for _, idx := range [][]int{s.Train, s.Val, s.Test} {
		for _, i := range idx {
			if seen[i] {
				t.Fatalf("index %d in two splits", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("splits cover %d of 100", len(seen))
	}
}

// groupFixture collects a small real dataset over a generated workload.
func groupFixture(t *testing.T) (*Dataset, *abtest.Harness) {
	t.Helper()
	w := workload.Generate(workload.ProfileB(0.003, 2021))
	h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 7)
	var jobs []*workload.Job
	for d := 0; d < 4; d++ {
		jobs = append(jobs, w.Day(d)...)
	}
	g := steering.NewGrouper(h)
	groups, err := g.Group(jobs)
	if err != nil {
		t.Fatal(err)
	}
	grp := groups[0]
	p := steering.NewPipeline(h, xrand.New(9))
	p.MaxCandidates = 60
	p.ExecutePerJob = 5
	arms, err := CandidateArms(p, grp.Jobs, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	members := grp.Jobs
	if len(members) > 60 {
		members = members[:60]
	}
	return Collect(h, grp.Signature, members, arms), h
}

func TestCandidateArmsStructure(t *testing.T) {
	ds, h := groupFixture(t)
	if len(ds.Configs) < 2 {
		t.Fatalf("only %d arms discovered", len(ds.Configs))
	}
	if !ds.Configs[0].Equal(h.Opt.Rules.DefaultConfig()) {
		t.Fatal("arm 0 is not the default configuration")
	}
	seen := make(map[string]bool)
	for _, c := range ds.Configs {
		hx := c.Hex()
		if seen[hx] {
			t.Fatal("duplicate arm")
		}
		seen[hx] = true
	}
}

func TestCollectDataset(t *testing.T) {
	ds, _ := groupFixture(t)
	if len(ds.Examples) == 0 {
		t.Fatal("no examples collected")
	}
	for _, ex := range ds.Examples {
		if len(ex.Runtimes) != len(ds.Configs) {
			t.Fatalf("example has %d runtimes, want %d", len(ex.Runtimes), len(ds.Configs))
		}
		if ex.Runtimes[0] <= 0 {
			t.Fatal("default runtime missing")
		}
		if ex.Feats.OpStats == nil {
			t.Fatal("query-graph features missing")
		}
		// Diffs of the default arm are empty by definition.
		if !ex.Feats.Diffs[0].IsEmpty() {
			t.Fatal("default arm has a non-empty RuleDiff")
		}
	}
}

func TestTrainEvaluateEndToEnd(t *testing.T) {
	ds, _ := groupFixture(t)
	if len(ds.Examples) < 15 {
		t.Skipf("group too small for a split: %d examples", len(ds.Examples))
	}
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 16
	opts.NN.Epochs = 60
	model := Train(ds, split, opts, xrand.New(6))
	ev := Evaluate(model, ds, split.Test)
	if len(ev.PerJob) != len(split.Test) {
		t.Fatalf("evaluated %d of %d test jobs", len(ev.PerJob), len(split.Test))
	}
	for _, o := range ev.PerJob {
		if o.Best > o.Default+1e-9 {
			t.Fatal("oracle worse than default")
		}
		if o.Best > o.Learned+1e-9 {
			t.Fatal("oracle worse than learned")
		}
		if o.Arm < 0 || o.Arm >= len(ds.Configs) {
			t.Fatalf("chosen arm %d out of range", o.Arm)
		}
	}
	// Aggregates ordered Best <= min(Default, Learned).
	mean := func(get func(JobOutcome) float64) float64 { return ev.Summarize(get).Mean }
	best := mean(func(o JobOutcome) float64 { return o.Best })
	def := mean(func(o JobOutcome) float64 { return o.Default })
	lrn := mean(func(o JobOutcome) float64 { return o.Learned })
	if best > def || best > lrn {
		t.Fatalf("ordering violated: best=%v default=%v learned=%v", best, def, lrn)
	}
}

func TestSummarizePercentiles(t *testing.T) {
	ev := Evaluation{}
	for i := 1; i <= 100; i++ {
		ev.PerJob = append(ev.PerJob, JobOutcome{Default: float64(i)})
	}
	s := ev.Summarize(func(o JobOutcome) float64 { return o.Default })
	if s.Mean != 50.5 {
		t.Fatalf("mean %v", s.Mean)
	}
	if s.P90 < 89 || s.P90 > 91 {
		t.Fatalf("p90 %v", s.P90)
	}
	if s.P99 < 98 || s.P99 > 100 {
		t.Fatalf("p99 %v", s.P99)
	}
}

func TestModelSaveLoad(t *testing.T) {
	ds, _ := groupFixture(t)
	if len(ds.Examples) < 10 {
		t.Skip("group too small")
	}
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 8
	opts.NN.Epochs = 20
	model := Train(ds, split, opts, xrand.New(6))

	data, err := model.Save()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Configs) != len(model.Configs) {
		t.Fatalf("loaded %d arms, want %d", len(got.Configs), len(model.Configs))
	}
	for i := range got.Configs {
		if !got.Configs[i].Equal(model.Configs[i]) {
			t.Fatalf("arm %d differs after round trip", i)
		}
	}
	// The loaded model makes identical choices.
	for _, ex := range ds.Examples {
		if model.Choose(ex.Feats) != got.Choose(ex.Feats) {
			t.Fatal("loaded model chooses differently")
		}
	}
	if _, err := Load([]byte("{nope")); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestEpochBudgets(t *testing.T) {
	def := nn.DefaultTrainConfig().Epochs
	for _, c := range []struct {
		epochs int
		want   []int
	}{
		{60, []int{30, 60}},
		{3, []int{1, 3}},
		{2, []int{1, 2}},
		{1, []int{1}},
		{0, []int{def / 2, def}},
		{-4, []int{def / 2, def}},
	} {
		if got := epochBudgets(c.epochs); !slices.Equal(got, c.want) {
			t.Errorf("epochBudgets(%d) = %v, want %v", c.epochs, got, c.want)
		}
	}
}

// TestTrainOneEpochBudget: with Epochs 1 the half budget is 0, which nn.Train
// reads as "the default"; Train used to fit a 200-epoch candidate for it.
// The model must be the single candidate, trained for exactly one epoch.
func TestTrainOneEpochBudget(t *testing.T) {
	ds, _ := groupFixture(t)
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 8
	opts.NN.Epochs = 1
	model := Train(ds, split, opts, xrand.New(6))

	r := xrand.New(6)
	want := nn.New(model.Enc.Width(), opts.Hidden, len(ds.Configs), r.Derive("init", "1"))
	want.Train(samples(model.Enc, ds, split.Train), opts.NN, r.Derive("train", "1"))
	got, err := model.Net.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantData) {
		t.Fatal("Epochs: 1 did not produce the one-epoch candidate")
	}
}

func TestLoadRejectsTampered(t *testing.T) {
	ds, _ := groupFixture(t)
	split := NewSplit(len(ds.Examples), xrand.New(5))
	opts := DefaultTrainOptions()
	opts.Hidden = 4
	opts.NN.Epochs = 2
	good, err := Train(ds, split, opts, xrand.New(6)).Save()
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
	net := func(m map[string]any) map[string]any { return m["net"].(map[string]any) }
	enc := func(m map[string]any) map[string]any { return m["encoder"].(map[string]any) }
	cases := []struct {
		name string
		data []byte
		is   error // nil: any error will do
	}{
		{"no encoder", tamper(func(m map[string]any) { delete(m, "encoder") }), ErrMalformed},
		{"null encoder", tamper(func(m map[string]any) { m["encoder"] = nil }), ErrMalformed},
		{"arm dropped", tamper(func(m map[string]any) { m["configs"] = m["configs"].([]any)[1:] }), ErrMalformed},
		{"arm added", tamper(func(m map[string]any) { m["configs"] = append(m["configs"].([]any), m["configs"].([]any)[0]) }), ErrMalformed},
		{"encoder narrower than network", tamper(func(m map[string]any) { enc(m)["ops"] = enc(m)["ops"].([]any)[1:] }), ErrMalformed},
		{"encoder for fewer arms", tamper(func(m map[string]any) { enc(m)["k"] = len(ds.Configs) - 1 }), ErrMalformed},
		{"encoder diff id out of range", tamper(func(m map[string]any) { enc(m)["diff_ids"] = []any{1 << 20} }), nil},
		{"arm not hex", tamper(func(m map[string]any) { m["configs"].([]any)[0] = "zz" }), nil},
		{"network row short", tamper(func(m map[string]any) {
			w1 := net(m)["w1"].([]any)
			w1[0] = w1[0].([]any)[1:]
		}), nn.ErrShape},
		{"network bias missing", tamper(func(m map[string]any) { delete(net(m), "b2") }), nn.ErrShape},
		{"network claims wider input", tamper(func(m map[string]any) { net(m)["In"] = 10000 }), nn.ErrShape},
	}
	for _, c := range cases {
		if bytes.Equal(c.data, good) {
			t.Fatalf("%s: tampering left the file unchanged", c.name)
		}
		_, err := Load(c.data)
		switch {
		case err == nil:
			t.Errorf("%s: loaded without error", c.name)
		case c.is != nil && !errors.Is(err, c.is):
			t.Errorf("%s: error %v does not wrap %v", c.name, err, c.is)
		}
	}
	if m, err := Load(good); err != nil || m.Choose(ds.Examples[0].Feats) < 0 {
		t.Fatalf("untampered model: %v", err)
	}
}
