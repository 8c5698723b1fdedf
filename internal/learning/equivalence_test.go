package learning

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/feature"
	"steerq/internal/nn"
	"steerq/internal/par"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// trainSerial is Train as it was before the budgets were fitted
// concurrently: one budget after the other, the first strictly lower
// validation loss kept.
func trainSerial(ds *Dataset, split Split, opts TrainOptions, r *xrand.Source) *Model {
	k := len(ds.Configs)
	var trainFeats []feature.JobFeatures
	for _, i := range split.Train {
		trainFeats = append(trainFeats, ds.Examples[i].Feats)
	}
	enc := feature.Fit(trainFeats, k)
	trainSamples := samples(enc, ds, split.Train)
	selectOn := samples(enc, ds, split.Val)
	if len(selectOn) == 0 {
		selectOn = trainSamples
	}
	var best *nn.Network
	bestLoss := math.Inf(1)
	for _, epochs := range epochBudgets(opts.NN.Epochs) {
		cfg := opts.NN
		cfg.Epochs = epochs
		net := nn.New(enc.Width(), opts.Hidden, k, r.Derive("init", fmt.Sprint(epochs)))
		net.Train(trainSamples, cfg, r.Derive("train", fmt.Sprint(epochs)))
		if loss := net.BCELoss(selectOn); loss < bestLoss {
			bestLoss = loss
			best = net
		}
	}
	return &Model{Enc: enc, Net: best, Configs: ds.Configs}
}

// TestTrainBudgetsMatchSerial: fitting the epoch budgets concurrently picks
// the model the serial loop picks, to the byte, at one worker and at four:
// on this fixture the full budget wins at Epochs 60 and the half budget at
// Epochs 400, and Epochs 1 has a single budget.
func TestTrainBudgetsMatchSerial(t *testing.T) {
	ds, _ := groupFixture(t)
	split := NewSplit(len(ds.Examples), xrand.New(5))
	for _, epochs := range []int{60, 400, 1} {
		opts := DefaultTrainOptions()
		opts.Hidden = 16
		opts.NN.Epochs = epochs
		want, err := trainSerial(ds, split, opts, xrand.New(6)).Save()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"1", "4"} {
			t.Setenv(par.EnvWorkers, w)
			got, err := Train(ds, split, opts, xrand.New(6)).Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("epochs %d, %s=%s: saved model differs from the serial loop's", epochs, par.EnvWorkers, w)
			}
		}
	}
}

// collectOneShot is Collect as it was before a member's arms shared an
// optimizer session: every arm a fresh Optimize.
func collectOneShot(h *abtest.Harness, sig bitvec.Vector, jobs []*workload.Job, arms []bitvec.Vector) *Dataset {
	ds := &Dataset{Signature: sig, Configs: arms}
	ctx := context.Background()
	for _, j := range jobs {
		ex := Example{Job: j, Runtimes: make([]float64, len(arms))}
		ex.Feats = feature.JobFeatures{
			InputsHash:   j.InputsHash,
			TemplateHash: j.TemplateHash,
			EstCosts:     make([]float64, len(arms)),
			Diffs:        make([]bitvec.Vector, len(arms)),
			Valid:        make([]bool, len(arms)),
		}
		for _, in := range j.Root.Inputs() {
			if st := h.Cat.Stream(in); st != nil {
				ex.Feats.InputBytes += st.BaseRows * st.BytesPerRow
			}
		}
		var defaultSig bitvec.Vector
		for k, cfg := range arms {
			tag := fmt.Sprintf("%s/arm%d", j.ID, k)
			var t abtest.Trial
			res, _, err := h.CompileCtx(ctx, tag, nil, func(bool) (*cascades.Result, error) {
				return h.Opt.Optimize(j.Root, cfg)
			})
			if err == nil {
				t = h.ExecCtx(ctx, res, j.Day, tag, nil)
				err = t.Err
			}
			if err != nil {
				ex.Runtimes[k] = -1
				continue
			}
			if k == 0 {
				defaultSig = t.Signature
				ex.Feats.OpStats = feature.PlanOpStats(res.Plan)
			}
			ex.Feats.Valid[k] = true
			ex.Feats.EstCosts[k] = t.EstCost
			ex.Feats.Diffs[k] = steering.DiffVector(defaultSig, t.Signature)
			ex.Runtimes[k] = t.Metrics.RuntimeSec
		}
		if ex.Runtimes[0] < 0 {
			continue
		}
		ds.Examples = append(ds.Examples, ex)
	}
	return ds
}

// TestCollectSessionMatchesOneShot: compiling a member's arms on one session
// assembles the dataset one fresh Optimize per arm does, clean and under
// fault seed 1337 (retries and corrupted plans go through the shared
// session). The members come from two groups, and one arm disables the
// implementation of PROCESS, which only the second group's jobs use: that
// arm has a plan for some members and none for the others.
func TestCollectSessionMatchesOneShot(t *testing.T) {
	w := workload.Generate(workload.ProfileB(0.003, 2021))
	var jobs []*workload.Job
	for d := 0; d < 4; d++ {
		jobs = append(jobs, w.Day(d)...)
	}
	plan := faults.DefaultPlan(1337)
	for _, fault := range []*faults.Plan{nil, &plan} {
		h := abtest.New(w.Cat, rules.NewOptimizer(cost.NewEstimated(w.Cat)), 7)
		if fault != nil {
			h.SetFaults(faults.NewInjector(*fault))
		}
		groups, err := steering.NewGrouper(h).Group(jobs)
		if err != nil {
			t.Fatal(err)
		}
		grp, other := groups[0], groups[1]
		p := steering.NewPipeline(h, xrand.New(9))
		p.MaxCandidates = 60
		p.ExecutePerJob = 5
		arms, err := CandidateArms(p, grp.Jobs, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, arms[0].AndNot(bitvec.New(rules.IDProcessImpl)))
		members := append(slices.Clone(grp.Jobs[:min(len(grp.Jobs), 50)]), other.Jobs[:min(len(other.Jobs), 10)]...)

		before := h.Faults.Stats()
		want := collectOneShot(h, grp.Signature, members, arms)
		injected := h.Faults.Stats()
		got := Collect(h, grp.Signature, members, arms)
		label := fmt.Sprintf("fault %v", fault != nil)
		noPlan := 0
		for _, ex := range want.Examples {
			if ex.Runtimes[len(arms)-1] < 0 {
				noPlan++
			}
		}
		if noPlan == 0 || noPlan == len(want.Examples) {
			t.Fatalf("%s: the arm without PROCESS fails for %d of %d members, want some", label, noPlan, len(want.Examples))
		}
		if fault != nil && (injected.Fails == before.Fails || injected.Corrupts == before.Corrupts) {
			t.Fatalf("%s: Collect saw no injected failure or corruption: %+v", label, injected)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: session Collect differs from one Optimize per arm", label)
		}
	}
}
