package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/cost"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
	"steerq/internal/serve"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// offlineEnv is the offline stack wired exactly as `steerq bundle` wires it
// (cmd/steerq newEnv.build + cmdBundle), around one registry.
type offlineEnv struct {
	reg *obs.Registry
	h   *abtest.Harness
	p   *steering.Pipeline
}

func newOfflineEnv(wl *workload.Workload, seed uint64, workers int, sz sizing) *offlineEnv {
	reg := obs.New()
	opt := rules.NewOptimizer(cost.NewEstimated(wl.Cat))
	opt.SetObs(reg)
	h := abtest.New(wl.Cat, opt, seed+1)
	h.SetObs(reg)
	h.Workers = workers
	p := steering.NewPipeline(h, xrand.New(seed).Derive("cli-bundle"))
	p.MaxCandidates = sz.Candidates
	p.ExecutePerJob = sz.ExecutePerJob
	p.Workers = workers
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(reg, "workload", wl.Name)
	p.Obs = reg
	return &offlineEnv{reg: reg, h: h, p: p}
}

// dayInput is one day's pass input — every job's script text — with what the
// oracles need to know about it: each job's default rule signature and which
// jobs represent a rule-signature group.
type dayInput struct {
	day         int
	jobs        []*workload.Job
	sigs        []bitvec.Vector // each job's default rule signature
	reps        []int           // index in jobs of each group's representative
	scriptBytes int
	// ref is the day's bundle as the first pass wrote it; every later pass,
	// rolled or unrolled, cold or from cache, must reproduce it byte for byte.
	ref []byte
	// gain is the day's steered gain from its first traced pass (exact at a
	// fixed seed, so every later traced pass must find the same).
	gain     float64
	gainSeen bool
}

type discoverState struct {
	wl    *workload.Workload
	days  []*dayInput
	env   *offlineEnv // the long-lived pipeline of discover_rerun; nil = fresh per pass
	genMs float64
	dayMs []float64
}

func newDayInput(h *abtest.Harness, day int, jobs []*workload.Job) (*dayInput, error) {
	groups, err := steering.NewGrouper(h).Group(jobs)
	if err != nil {
		return nil, fmt.Errorf("benchmark: group day %d: %w", day, err)
	}
	sigOf := make(map[*workload.Job]bitvec.Vector)
	isRep := make(map[*workload.Job]bool)
	for _, g := range groups {
		isRep[g.Jobs[0]] = true
		for _, j := range g.Jobs {
			sigOf[j] = g.Signature
		}
	}
	in := &dayInput{day: day, jobs: jobs}
	for i, j := range jobs {
		if isRep[j] {
			in.reps = append(in.reps, i)
		}
		in.sigs = append(in.sigs, sigOf[j])
		in.scriptBytes += len(j.Script)
	}
	return in, nil
}

func setupDiscover(rc *runCtx, rerun bool) (*discoverState, error) {
	st := &discoverState{}
	st.genMs = ms(stopwatch(func() { st.wl = workload.Generate(workload.ProfileA(rc.sz.Scale, rc.seed)) }))
	grouping := newOfflineEnv(st.wl, rc.seed, 1, rc.sz)
	for d := 0; d < rc.sz.Days; d++ {
		var jobs []*workload.Job
		st.dayMs = append(st.dayMs, ms(stopwatch(func() { jobs = st.wl.Day(d) })))
		in, err := newDayInput(grouping.h, d, jobs)
		if err != nil {
			return nil, err
		}
		st.days = append(st.days, in)
	}
	if rerun {
		// The cold pass that fills the cache is set-up, not measurement; its
		// bundle is the reference the re-passes must reproduce from cache. It
		// may use every core (results are identical at any worker count); the
		// measured re-passes run at Workers=1.
		st.env = newOfflineEnv(st.wl, rc.seed, workers(), rc.sz)
		for _, in := range st.days {
			out, err := st.pass(rc, st.env, in, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			in.ref = out.bytes
		}
		st.env.h.Workers, st.env.p.Workers = 1, 1
	}
	return st, nil
}

// passOut is everything one pass produced, kept for the oracles.
type passOut struct {
	wall, cpu   time.Duration
	roots       []*plan.Node
	compileErrs int
	bundle      *bundle.Bundle
	report      steering.BundleReport
	bytes       []byte
	sdk         *serve.SDK
	decisions   []serve.Decision
	live        []bool
}

// pass takes one day from script text to a served decision per job:
// scopeql.Compile each script, Pipeline.BuildBundle, Bundle.WriteFile,
// SDK.LoadFile, SDK.Lookup of every job's default signature. With a tracer
// BuildBundle is unrolled into its public stages, one span per call.
func (st *discoverState) pass(rc *runCtx, env *offlineEnv, in *dayInput, tr *tracer, acc *layerAcc, passNo int) (*passOut, error) {
	out := &passOut{}
	path := filepath.Join(rc.scratch, "discover.stqb")
	cpu0, t0 := selfCPU(), now()
	root := tr.start(0, "bench", "pass", passNo)

	jobs := make([]*workload.Job, len(in.jobs))
	out.roots = make([]*plan.Node, len(in.jobs))
	var compileTotal time.Duration
	for i, j := range in.jobs {
		var r *plan.Node
		var err error
		if tr == nil {
			r, err = scopeql.Compile(j.Script, st.wl.Cat)
		} else {
			d := tr.call(root, "scopeql", "compile", passNo, func() { r, err = scopeql.Compile(j.Script, st.wl.Cat) })
			acc.add("scopeql.compile_us", us(d))
			compileTotal += d
		}
		if err != nil {
			out.compileErrs++
			r = j.Root
		}
		nj := *j
		nj.Root = r
		jobs[i], out.roots[i] = &nj, r
	}
	acc.add("t.compile_s", compileTotal.Seconds())

	var err error
	if tr == nil {
		out.bundle, out.report, err = env.p.BuildBundle(jobs, 1, 0)
	} else {
		out.bundle, out.report, err = unrolledBuild(env, jobs, tr, acc, root, passNo)
	}
	if err != nil {
		return nil, fmt.Errorf("benchmark: build bundle day %d: %w", in.day, err)
	}
	d := tr.call(root, "bundle", "write", passNo, func() { err = out.bundle.WriteFile(path) })
	if err != nil {
		return nil, fmt.Errorf("benchmark: write bundle: %w", err)
	}
	acc.add("bundle.write_us", us(d))
	out.sdk = serve.NewSDK(env.reg)
	d = tr.call(root, "serve", "load_file", passNo, func() { err = out.sdk.LoadFile(path) })
	if err != nil {
		return nil, fmt.Errorf("benchmark: load bundle: %w", err)
	}
	out.decisions = make([]serve.Decision, len(in.sigs))
	out.live = make([]bool, len(in.sigs))
	id := tr.start(root, "serve", "lookup", passNo)
	d = stopwatch(func() {
		for i, sig := range in.sigs {
			out.decisions[i], out.live[i] = out.sdk.Lookup(sig)
		}
	})
	tr.end(id, len(in.sigs))
	acc.add("serve.lookup_ns", float64(d.Nanoseconds())/float64(len(in.sigs)))
	tr.end(root, 1)
	out.wall, out.cpu = now().Sub(t0), selfCPU()-cpu0

	if out.bytes, err = os.ReadFile(path); err != nil {
		return nil, fmt.Errorf("benchmark: read bundle back: %w", err)
	}
	return out, nil
}

// unrolledBuild is Pipeline.BuildBundle made of its public stages — Group,
// then per representative Recompile -> Execute -> MinimalConfig, then Encode
// — so each can carry a span. The pass oracle holds its bundle to the rolled
// one's bytes.
func unrolledBuild(env *offlineEnv, jobs []*workload.Job, tr *tracer, acc *layerAcc, root, passNo int) (*bundle.Bundle, steering.BundleReport, error) {
	rep := steering.BundleReport{Jobs: len(jobs)}
	var groups []*steering.JobGroup
	var err error
	d := tr.call(root, "cascades", "group", passNo, func() { groups, err = steering.NewGrouper(env.h).Group(jobs) })
	if err != nil {
		return nil, rep, err
	}
	acc.add("cascades.group_us", us(d)/float64(len(jobs)))
	rep.Groups = len(groups)
	rs := env.h.Opt.Rules
	b := &bundle.Bundle{Version: 1, Default: rs.DefaultConfig(), Workload: jobs[0].Workload}
	var minimal, recompile time.Duration
	var fp steering.FootprintStats
	var sched steering.SchedStats
	for _, g := range groups {
		e := bundle.Entry{Signature: g.Signature, Config: rs.DefaultConfig(), Fallback: true}
		var a *steering.Analysis
		var aerr error
		rd := tr.call(root, "steering", "recompile", passNo, func() { a, aerr = env.p.Recompile(g.Jobs[0]) })
		acc.add("steering.recompile_ms", ms(rd))
		recompile += rd
		if aerr != nil {
			rep.Failed++
			b.Entries = append(b.Entries, e)
			continue
		}
		acc.add("abtest.execute_ms", ms(tr.call(root, "abtest", "execute", passNo, func() { env.p.Execute(a) })))
		minimal += stopwatch(func() {
			if cfg, ok := steering.MinimalConfig(a, rs); ok {
				e.Config, e.Fallback = cfg, false
				rep.Steered++
			} else {
				rep.Fallbacks++
			}
		})
		fp.Add(a.Footprint)
		sched.Add(a.Sched)
		b.Entries = append(b.Entries, e)
	}
	tr.batched(root, "steering", "minimal_config", passNo, minimal, len(groups))
	acc.add("steering.minimal_ms", ms(minimal))
	acc.add("t.recompile_s", recompile.Seconds())
	acc.add("steering.candidates", float64(fp.Candidates))
	acc.add("t.fp_avoided", float64(fp.Avoided))
	acc.add("par.items", float64(sched.Items))
	acc.add("par.steals", float64(sched.Steals))
	acc.add("par.merges", float64(sched.Merges))
	acc.add("bundle.encode_us", us(tr.call(root, "bundle", "encode", passNo, func() { _, err = b.Encode() })))
	return b, rep, err
}

// checkPass holds one pass's outputs to the oracles; each is a counted check.
func checkPass(t *tally, in *dayInput, out *passOut) {
	for i, j := range in.jobs {
		t.check(out.roots[i] != nil && plan.TemplateHash(out.roots[i]) == j.TemplateHash && plan.InstanceHash(out.roots[i]) == j.InstanceHash,
			"%s: compiled script's template/instance hash differs from the generator's", j.ID)
	}
	t.Attempted += int64(out.report.Groups)
	t.Failed += int64(out.report.Failed)
	t.check(out.compileErrs == 0 && out.report.Groups == len(in.reps) && len(out.bundle.Entries) == out.report.Groups,
		"day %d: %d compile errors, %d groups analysed, %d expected", in.day, out.compileErrs, out.report.Groups, len(in.reps))

	entries := make(map[bitvec.Key]bundle.Entry, len(out.bundle.Entries))
	for _, e := range out.bundle.Entries {
		entries[e.Signature.Key()] = e
	}
	for i, sig := range in.sigs {
		e, ok := entries[sig.Key()]
		kind := serve.KindHit
		if e.Fallback {
			kind = serve.KindFallback
		}
		got := out.decisions[i]
		t.check(ok && out.live[i] && got.Kind == kind && got.Version == out.bundle.Version && got.Config.Equal(e.Config),
			"%s: lookup %+v differs from the bundle entry", in.jobs[i].ID, got)
	}

	enc, err := out.bundle.Encode()
	t.check(err == nil && bytes.Equal(enc, out.bytes), "day %d: bundle file differs from its encoding", in.day)
	if in.ref == nil {
		in.ref = out.bytes
	}
	t.check(bytes.Equal(in.ref, out.bytes), "day %d: bundle %016x differs from the day's first pass", in.day, out.bundle.Checksum())
}

// steeredGain is the mean runtime reduction, in percent, of running each
// group representative the way a steered cluster would (RunSteered against
// the pass's freshly loaded SDK) versus its default trial.
func steeredGain(env *offlineEnv, in *dayInput, out *passOut) float64 {
	h := env.h
	h.Steer = out.sdk
	defer func() { h.Steer = nil }()
	var gains []float64
	for _, ri := range in.reps {
		j := in.jobs[ri]
		def := h.RunConfig(out.roots[ri], h.Opt.Rules.DefaultConfig(), j.Day, j.ID+"/gain")
		steered, _ := h.RunSteered(out.roots[ri], j.Day, j.ID+"/gain")
		if def.Err != nil || steered.Err != nil || def.Metrics.RuntimeSec == 0 {
			gains = append(gains, 0)
			continue
		}
		gains = append(gains, 100*(def.Metrics.RuntimeSec-steered.Metrics.RuntimeSec)/def.Metrics.RuntimeSec)
	}
	return ratio(sum(gains), float64(len(gains)))
}

func runDiscover(rc *runCtx, rerun bool) (*result, error) {
	w := workers()
	if rerun {
		w = 1
	}
	st, setupS, err := setupMedian(rc.sz.SetupReps,
		func() (*discoverState, error) { return setupDiscover(rc, rerun) },
		func(*discoverState) error { return nil })
	if err != nil {
		return nil, err
	}
	envFor := func(workers int) *offlineEnv {
		if rerun {
			return st.env
		}
		return newOfflineEnv(st.wl, rc.seed, workers, rc.sz)
	}
	res := &result{Metrics: map[string]float64{}}
	var acc *layerAcc
	if rc.traced() {
		acc = newLayerAcc()
	}

	// ops, passMs and cpuMs are the untraced passes' speed-normalised samples;
	// the raw per-round figures feed only the traced run's bookkeeping.
	var ops, passMs, cpuMs, roundOps, untracedS, untracedNormS, tracedNormS, day0Ms []float64
	var jobs, decisions int
	sp := newSpeedometer(w)
	var allocsPerJob float64
	start, passNo := now(), 0
	for round := 0; rc.another(round, start); round++ {
		traced := rc.traced() && round%2 == 1
		var ms0 runtime.MemStats
		if rc.traced() && round == 0 {
			runtime.ReadMemStats(&ms0)
		}
		var roundWall time.Duration
		var roundNormS float64 // speed-normalised, so the overhead compares rounds, not moments
		roundDecisions, roundJobs := 0, 0
		for _, in := range st.days {
			passNo++
			env := envFor(w)
			var tr *tracer
			var pacc *layerAcc
			var before obs.Snapshot
			var cache0 steering.CacheStats
			if traced {
				tr, pacc = rc.tr, acc
				before, cache0 = env.reg.Snapshot(), env.p.Cache.Stats()
			}
			out, err := st.pass(rc, env, in, tr, pacc, passNo)
			if err != nil {
				return nil, err
			}
			checkPass(&res.tally, in, out)
			roundWall += out.wall
			roundDecisions += out.report.Groups
			roundJobs += len(in.jobs)
			if traced {
				acc.registryDelta(before, env.reg.Snapshot())
				c := env.p.Cache.Stats()
				acc.add("t.cache_hits", float64(c.Hits-cache0.Hits))
				acc.add("t.cache_probes", float64(c.Hits-cache0.Hits+c.Misses-cache0.Misses))
				acc.add("steering.cache_entries", float64(c.Entries))
				acc.add("t.pass_s", out.wall.Seconds())
				acc.add("t.script_bytes", float64(in.scriptBytes))
				acc.add("bundle.bytes", float64(len(out.bytes)))
				acc.add("bundle.entries", float64(len(out.bundle.Entries)))
				bundleLayer(acc, out.bytes)
				g := steeredGain(env, in, out)
				if !in.gainSeen {
					in.gain, in.gainSeen = g, true
				}
				res.check(in.gain == g, "day %d: steered gain %v differs from the first traced pass's %v", in.day, g, in.gain)
			} else if in.day == 0 {
				day0Ms = append(day0Ms, ms(out.wall))
			}
			f := sp.factor()
			roundNormS += out.wall.Seconds() * f
			if !traced {
				n := float64(len(in.jobs))
				ops = append(ops, n/(out.wall.Seconds()*f))
				passMs = append(passMs, ms(out.wall)*f)
				cpuMs = append(cpuMs, ms(out.cpu)*f/n)
			}
		}
		if traced {
			tracedNormS = append(tracedNormS, roundNormS)
			continue
		}
		if rc.traced() && round == 0 {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			allocsPerJob = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(roundJobs))
		}
		untracedS = append(untracedS, roundWall.Seconds())
		untracedNormS = append(untracedNormS, roundNormS)
		roundOps = append(roundOps, float64(roundDecisions)/roundWall.Seconds())
		jobs += roundJobs
		decisions += roundDecisions
	}

	if !rc.traced() {
		res.Metrics = endToEndMetrics(ops, passMs, cpuMs, setupS)
		return res, nil
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	speedup := 1.0
	if !rerun && w > 1 {
		out, err := st.pass(rc, envFor(1), st.days[0], nil, nil, 0)
		if err != nil {
			return nil, err
		}
		checkPass(&res.tally, st.days[0], out)
		speedup = ratio(ms(out.wall), median(day0Ms))
	}
	m := acc.layerMetrics()
	m["par.speedup"] = speedup
	m["jobs_per_s"] = ratio(float64(jobs), sum(untracedS))
	m["decisions_per_s"] = ratio(float64(decisions), sum(untracedS))
	m["allocs_per_job"] = allocsPerJob
	m["peak_rss_mb"] = rss
	for _, in := range st.days {
		m["steered_gain_pct"] += in.gain / float64(len(st.days))
	}
	m["workload.generate_ms"] = st.genMs
	m["workload.day_ms"] = median(st.dayMs)
	benchMetrics(m, sp, 100*(ratio(median(tracedNormS), median(untracedNormS))-1), roundOps)
	res.Metrics = m
	return res, nil
}
