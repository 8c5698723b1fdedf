package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/learning"
	"steerq/internal/obs"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

type learnState struct {
	wl     *workload.Workload
	env    *offlineEnv
	groups []*steering.JobGroup // the largest groups, members capped
	genMs  float64
	dayMs  []float64
	// refModels are each group's saved model from the first round; training
	// is seeded, so every later round must save the same bytes.
	refModels [][]byte
	refGains  []float64
}

func setupLearn(rc *runCtx) (*learnState, error) {
	st := &learnState{}
	st.genMs = ms(stopwatch(func() { st.wl = workload.Generate(workload.ProfileB(rc.sz.Scale, rc.seed)) }))
	var corpus []*workload.Job
	for d := 0; d < rc.sz.LearnDays; d++ {
		st.dayMs = append(st.dayMs, ms(stopwatch(func() { corpus = append(corpus, st.wl.Day(d)...) })))
	}
	st.env = newOfflineEnv(st.wl, rc.seed, 1, rc.sz)
	groups, err := steering.NewGrouper(st.env.h).Group(corpus)
	if err != nil {
		return nil, fmt.Errorf("benchmark: group corpus: %w", err)
	}
	if len(groups) < rc.sz.LearnGroups {
		return nil, fmt.Errorf("benchmark: %d groups, need %d", len(groups), rc.sz.LearnGroups)
	}
	// The same member count for every group and seed: training cost is per
	// example, and the seed must not move the cost of one op.
	for _, g := range groups[:rc.sz.LearnGroups] {
		if len(g.Jobs) > rc.sz.LearnMembers {
			g.Jobs = g.Jobs[:rc.sz.LearnMembers]
		}
		st.groups = append(st.groups, g)
	}
	st.refModels = make([][]byte, len(st.groups))
	st.refGains = make([]float64, len(st.groups))
	return st, nil
}

// learnGroup takes one group through §7: CandidateArms -> Collect ->
// NewSplit -> Train -> Evaluate -> Save/Load/Choose, on a fresh pipeline.
func (st *learnState) learnGroup(rc *runCtx, gi int, tr *tracer, acc *layerAcc, passNo int, t *tally) (wall, cpu time.Duration, examples int, err error) {
	g := st.groups[gi]
	h := st.env.h
	p := steering.NewPipeline(h, xrand.New(rc.seed).Derive("learn"))
	p.MaxCandidates, p.ExecutePerJob, p.Workers = rc.sz.Candidates, rc.sz.ExecutePerJob, 1
	p.Cache = steering.NewCompileCache()
	p.Obs = st.env.reg
	var before obs.Snapshot
	if tr != nil {
		before = st.env.reg.Snapshot()
	}

	cpu0, t0 := selfCPU(), now()
	root := tr.start(0, "bench", "group", passNo)
	var arms []bitvec.Vector
	var ds *learning.Dataset
	var split learning.Split
	var model, loaded *learning.Model
	var ev learning.Evaluation
	var saved []byte
	var aerr error
	acc.add("learning.arms_ms", ms(tr.call(root, "learning", "candidate_arms", passNo, func() {
		arms, aerr = learning.CandidateArms(p, g.Jobs, rc.sz.LearnBase, rc.sz.LearnArms)
	})))
	if aerr != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: arms of group %d: %w", gi, aerr)
	}
	acc.add("learning.collect_ms", ms(tr.call(root, "learning", "collect", passNo, func() { ds = learning.Collect(h, g.Signature, g.Jobs, arms) })))
	trainD := tr.call(root, "nn", "train", passNo, func() {
		split = learning.NewSplit(len(ds.Examples), xrand.New(rc.seed).Derive("split"))
		model = learning.Train(ds, split, learning.DefaultTrainOptions(), xrand.New(rc.seed).Derive("train"))
	})
	acc.add("nn.train_ms", ms(trainD))
	acc.add("t.train_s", trainD.Seconds())
	acc.add("learning.evaluate_ms", ms(tr.call(root, "learning", "evaluate", passNo, func() { ev = learning.Evaluate(model, ds, split.Test) })))
	choices := make([]int, len(split.Test))
	var serr error
	acc.add("learning.save_load_ms", ms(tr.call(root, "learning", "save_load_choose", passNo, func() {
		if saved, serr = model.Save(); serr != nil {
			return
		}
		if loaded, serr = learning.Load(saved); serr != nil {
			return
		}
		for i, ei := range split.Test {
			choices[i] = loaded.Choose(ds.Examples[ei].Feats)
		}
	})))
	tr.end(root, 1)
	wall, cpu = now().Sub(t0), selfCPU()-cpu0

	if tr != nil {
		acc.registryDelta(before, st.env.reg.Snapshot())
		acc.add("learning.trials", float64(len(ds.Examples)*len(arms)))
		acc.add("t.pass_s", wall.Seconds())
	}
	t.check(serr == nil, "group %d: save/load: %v", gi, serr)
	if serr == nil {
		for i, ei := range split.Test {
			t.check(choices[i] == model.Choose(ds.Examples[ei].Feats), "group %d: reloaded model chooses arm %d for %s, in-memory model another", gi, choices[i], ds.Examples[ei].Job.ID)
		}
	}
	t.check(len(ds.Examples) == len(g.Jobs) && len(arms) >= 2 && len(ev.PerJob) == len(split.Test),
		"group %d: %d examples of %d members, %d arms, %d evaluated of %d", gi, len(ds.Examples), len(g.Jobs), len(arms), len(ev.PerJob), len(split.Test))
	def := ev.Summarize(func(o learning.JobOutcome) float64 { return o.Default })
	lrn := ev.Summarize(func(o learning.JobOutcome) float64 { return o.Learned })
	gain := 100 * ratio(def.Mean-lrn.Mean, def.Mean)
	if st.refModels[gi] == nil {
		st.refModels[gi], st.refGains[gi] = saved, gain
	}
	t.check(bytes.Equal(st.refModels[gi], saved) && st.refGains[gi] == gain, "group %d: model or gain differs from the first round's", gi)
	return wall, cpu, len(ds.Examples), nil
}

func runLearn(rc *runCtx) (*result, error) {
	st, setupS, err := setupMedian(rc.sz.SetupReps,
		func() (*learnState, error) { return setupLearn(rc) },
		func(*learnState) error { return nil })
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]float64{}}
	var acc *layerAcc
	if rc.traced() {
		acc = newLayerAcc()
	}
	var ops, groupMs, cpuMs, roundOps, untracedNormS, tracedNormS []float64
	sp := newSpeedometer(1)
	start, passNo := now(), 0
	for round := 0; rc.another(round, start); round++ {
		traced := rc.traced() && round%2 == 1
		var roundWall time.Duration
		var roundNormS float64 // speed-normalised, so the overhead compares rounds, not moments
		roundExamples := 0
		for gi := range st.groups {
			passNo++
			var tr *tracer
			var gacc *layerAcc
			if traced {
				tr, gacc = rc.tr, acc
			}
			wall, c, n, err := st.learnGroup(rc, gi, tr, gacc, passNo, &res.tally)
			if err != nil {
				return nil, err
			}
			roundWall += wall
			roundExamples += n
			f := sp.factor()
			roundNormS += wall.Seconds() * f
			if !traced {
				ops = append(ops, float64(n)/(wall.Seconds()*f))
				groupMs = append(groupMs, ms(wall)*f)
				cpuMs = append(cpuMs, ms(c)*f/float64(n))
			}
		}
		if traced {
			tracedNormS = append(tracedNormS, roundNormS)
			continue
		}
		untracedNormS = append(untracedNormS, roundNormS)
		roundOps = append(roundOps, float64(roundExamples)/roundWall.Seconds())
	}

	if !rc.traced() {
		res.Metrics = endToEndMetrics(ops, groupMs, cpuMs, setupS)
		return res, nil
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	m := acc.layerMetrics()
	m["peak_rss_mb"] = rss
	m["learned_gain_pct"] = ratio(sum(st.refGains), float64(len(st.refGains)))
	m["workload.generate_ms"] = st.genMs
	m["workload.day_ms"] = median(st.dayMs)
	benchMetrics(m, sp, 100*(ratio(median(tracedNormS), median(untracedNormS))-1), roundOps)
	res.Metrics = m
	return res, nil
}
