// Command steerq is the interactive CLI over the steering stack: compile a
// SCOPE-like script against a generated workload's catalog, inspect its plan,
// rule signature and job span, search candidate configurations, and run the
// discovery pipeline for a single job.
//
// Usage:
//
//	steerq compile  [-workload A] [-seed N] [-script file | -job day/idx] [-show-plan]
//	steerq span     [-workload A] [-job day/idx]
//	steerq search   [-workload A] [-job day/idx] [-m 200] [-fault-seed N]
//	steerq pipeline [-workload A] [-job day/idx] [-m 300] [-k 10] [-workers N] [-fault-seed N]
//	steerq groups   [-workload A] [-day 0] [-top 15]
//	steerq workload [-workload A] [-day 0]
//	steerq bundle   [-workload A] [-day 0] [-max-jobs N] [-m 300] [-k 10] -out file.stqb
//	steerq bundle   -inspect file.stqb
//	steerq steer    (-addr host:port | -bundle file.stqb) [-sig hex | -job day/idx] [-wait-ready 5s]
//
// Jobs are addressed as day/index within the deterministic generated
// workload, e.g. -job 0/17.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/scopeql"
	"steerq/internal/serve"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "compile":
		err = cmdCompile(args)
	case "span":
		err = cmdSpan(args)
	case "search":
		err = cmdSearch(args)
	case "pipeline":
		err = cmdPipeline(args)
	case "groups":
		err = cmdGroups(args)
	case "workload":
		err = cmdWorkload(args)
	case "explain":
		err = cmdExplain(args)
	case "bundle":
		err = cmdBundle(args)
	case "steer":
		err = cmdSteer(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "steerq:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: steerq <compile|explain|span|search|pipeline|groups|workload|bundle|steer> [flags]
run "steerq <command> -h" for command flags`)
}

// env bundles the common flags and lazily built objects.
type env struct {
	fs         *flag.FlagSet
	name       *string
	seed       *uint64
	scale      *float64
	jobRef     *string
	script     *string
	workers    *int
	faultSeed  *string
	metricsOut *string
	wl         *workload.Workload
	harness    *abtest.Harness
	reg        *obs.Registry
}

func newEnv(cmd string) *env {
	e := &env{
		fs:  flag.NewFlagSet(cmd, flag.ExitOnError),
		reg: obs.NewWithClock(obs.ClockFromEnv()),
	}
	e.name = e.fs.String("workload", "A", "workload name (A, B or C)")
	e.seed = e.fs.Uint64("seed", 2021, "generator seed")
	e.scale = e.fs.Float64("scale", 0.01, "workload scale (1.0 = paper scale)")
	e.jobRef = e.fs.String("job", "0/0", "job reference day/index")
	e.script = e.fs.String("script", "", "path to a SCOPE-like script (overrides -job)")
	e.workers = e.fs.Int("workers", 0, "worker goroutines (0 = $STEERQ_WORKERS or GOMAXPROCS); results are identical at any setting")
	e.faultSeed = e.fs.String("fault-seed", "", "arm deterministic fault injection with this seed (empty = off)")
	e.metricsOut = e.fs.String("metrics-out", "", "write the JSON metrics snapshot to this file on exit")
	return e
}

func (e *env) build() error {
	var p workload.Profile
	switch *e.name {
	case "A":
		p = workload.ProfileA(*e.scale, *e.seed)
	case "B":
		p = workload.ProfileB(*e.scale, *e.seed)
	case "C":
		p = workload.ProfileC(*e.scale, *e.seed)
	default:
		return fmt.Errorf("unknown workload %q", *e.name)
	}
	e.wl = workload.Generate(p)
	opt := rules.NewOptimizer(cost.NewEstimated(e.wl.Cat))
	opt.SetObs(e.reg)
	e.harness = abtest.New(e.wl.Cat, opt, *e.seed+1)
	e.harness.SetObs(e.reg)
	e.harness.Workers = *e.workers
	fp, err := faults.ParsePlan(*e.faultSeed)
	if err != nil {
		return err
	}
	if fp != nil {
		in := faults.NewInjector(*fp)
		e.harness.SetFaults(in)
		in.Publish(e.reg)
	}
	return nil
}

// finish writes the -metrics-out snapshot. Commands call it on their success
// path so a failed run never leaves a partial snapshot behind.
func (e *env) finish() error {
	if *e.metricsOut == "" {
		return nil
	}
	return e.reg.Snapshot().WriteFile(*e.metricsOut)
}

// pipeline is the discovery pipeline search and pipeline run a job through:
// M candidates drawn from the "cli-pipeline" stream, a compile cache and the
// command's registry.
func (e *env) pipeline(m int) *steering.Pipeline {
	p := steering.NewPipeline(e.harness, xrand.New(*e.seed).Derive("cli-pipeline"))
	p.MaxCandidates = m
	p.Workers = *e.workers
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(e.reg, "workload", *e.name)
	p.Obs = e.reg
	return p
}

// job resolves the -script / -job flags into a compiled job.
func (e *env) job() (*workload.Job, error) {
	if *e.script != "" {
		src, err := os.ReadFile(*e.script)
		if err != nil {
			return nil, err
		}
		root, err := scopeql.Compile(string(src), e.wl.Cat)
		if err != nil {
			return nil, err
		}
		return &workload.Job{ID: *e.script, Workload: *e.name, Script: string(src), Root: root}, nil
	}
	parts := strings.SplitN(*e.jobRef, "/", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -job %q, want day/index", *e.jobRef)
	}
	day, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad day in -job: %v", err)
	}
	idx, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad index in -job: %v", err)
	}
	jobs := e.wl.Day(day)
	if idx < 0 || idx >= len(jobs) {
		return nil, fmt.Errorf("job index %d out of range (day has %d jobs)", idx, len(jobs))
	}
	return jobs[idx], nil
}

func cmdCompile(args []string) error {
	e := newEnv("compile")
	showPlan := e.fs.Bool("show-plan", false, "print the physical plan")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	rs := e.harness.Opt.Rules
	res, err := e.harness.Opt.Optimize(j.Root, rs.DefaultConfig())
	if err != nil {
		return err
	}
	m := e.harness.Executor.Run(res.Plan, j.Day, j.ID)
	fmt.Printf("job %s (template %016x)\n", j.ID, j.TemplateHash)
	fmt.Printf("estimated cost: %.2f\n", res.Cost)
	fmt.Printf("simulated runtime: %.1fs cpu: %.1fs io: %.1fs vertices: %d\n",
		m.RuntimeSec, m.CPUSec, m.IOTimeSec, m.Vertices)
	fmt.Printf("rule signature (%d rules):\n", res.Signature.Count())
	for _, id := range res.Signature.Ones() {
		ri, _ := rs.Info(id)
		fmt.Printf("  %s\n", ri)
	}
	if *showPlan {
		fmt.Printf("physical plan:\n%s", res.Plan)
	}
	return e.finish()
}

func cmdSpan(args []string) error {
	e := newEnv("span")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	span, err := steering.JobSpan(e.harness.Opt, j.Root)
	if err != nil {
		return err
	}
	rs := e.harness.Opt.Rules
	fmt.Printf("job span of %s: %d rules\n", j.ID, span.Count())
	byCat := steering.SpanByCategory(span, rs)
	for cat, v := range byCat {
		fmt.Printf("  %s:\n", cat)
		for _, id := range v.Ones() {
			ri, _ := rs.Info(id)
			fmt.Printf("    %s#%d\n", ri.Name, ri.ID)
		}
	}
	return e.finish()
}

func cmdSearch(args []string) error {
	e := newEnv("search")
	m := e.fs.Int("m", 200, "candidate configurations to generate")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	a, err := e.pipeline(*m).RecompileCtx(context.Background(), j)
	if err != nil {
		return err
	}
	fmt.Printf("span=%d rules, %d unique candidate configurations; default cost %.2f\n",
		a.Span.Count(), a.Footprint.Candidates, a.Default.EstCost)
	cands := append([]steering.Candidate(nil), a.Candidates...)
	sort.SliceStable(cands, func(i, k int) bool { return cands[i].EstCost < cands[k].EstCost })
	fmt.Printf("%d compiled, %d failed; 10 cheapest:\n", len(cands), a.Footprint.Candidates-len(cands))
	rs := e.harness.Opt.Rules
	for _, c := range cands[:min(10, len(cands))] {
		d := steering.Diff(a.Default.Signature, c.Signature)
		fmt.Printf("  cost=%.2f  -%v +%v\n", c.EstCost, names(rs, d.OnlyDefault), names(rs, d.OnlyNew))
	}
	return e.finish()
}

func cmdPipeline(args []string) error {
	e := newEnv("pipeline")
	m := e.fs.Int("m", 300, "candidate configurations (M)")
	k := e.fs.Int("k", 10, "alternatives executed per job")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	p := e.pipeline(*m)
	p.ExecutePerJob = *k
	a, err := p.AnalyzeCtx(context.Background(), j)
	if err != nil {
		return err
	}
	rs := e.harness.Opt.Rules
	fmt.Printf("job %s: default runtime %.1fs, cost %.2f, span %d rules, %d candidates compiled\n",
		j.ID, a.Default.Metrics.RuntimeSec, a.Default.EstCost, a.Span.Count(), len(a.Candidates))
	for i, t := range a.Trials {
		if t.Err != nil {
			fmt.Printf("  alt%d: compile failed: %v\n", i, t.Err)
			continue
		}
		if t.FellBack {
			fmt.Printf("  alt%d: fell back to default config after %d attempts\n", i, t.Attempts)
			continue
		}
		pct := a.PercentChange(&a.Trials[i], steering.MetricRuntime)
		d := steering.Diff(a.Default.Signature, t.Signature)
		fmt.Printf("  alt%d: runtime %.1fs (%+.1f%%) cost %.2f  -%v +%v\n",
			i, t.Metrics.RuntimeSec, pct, t.EstCost, names(rs, d.OnlyDefault), names(rs, d.OnlyNew))
	}
	best := a.BestConfig(steering.MetricRuntime)
	fmt.Printf("best runtime: %.1fs (%+.1f%% vs default)\n",
		best.Metrics.RuntimeSec, a.PercentChange(best, steering.MetricRuntime))
	if rb := a.Robustness; !rb.IsZero() {
		st := e.harness.Faults.Stats()
		fmt.Printf("fault injection: %d injected (fail=%d hang=%d corrupt=%d) over %d decisions\n",
			st.Injected(), st.Fails, st.Hangs, st.Corrupts, st.Decisions)
		fmt.Printf("  survived via %d retries (%d compile, %d exec), %d timeouts, %d corrupted plans caught, %d fallbacks\n",
			rb.Retries(), rb.CompileRetries, rb.ExecRetries, rb.Timeouts, rb.Corruptions, rb.Fallbacks)
	}
	if rec := steering.Recommend(a, rs); rec != nil {
		fmt.Printf("recommended plan hint for job group %s...:\n%s",
			rec.GroupSignature[:16], rec.Hints)
	}
	return e.finish()
}

func cmdGroups(args []string) error {
	e := newEnv("groups")
	day := e.fs.Int("day", 0, "day to group")
	top := e.fs.Int("top", 15, "groups to print")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	jobs := e.wl.Day(*day)
	g := steering.NewGrouper(e.harness)
	groups, err := g.Group(jobs)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s day %d: %d jobs in %d rule-signature job groups\n",
		*e.name, *day, len(jobs), len(groups))
	rs := e.harness.Opt.Rules
	for i, grp := range groups {
		if i >= *top {
			break
		}
		fmt.Printf("  group %2d: %4d jobs, signature %d rules: %v\n",
			i+1, len(grp.Jobs), grp.Signature.Count(), names(rs, grp.Signature.Ones()))
	}
	return e.finish()
}

func cmdWorkload(args []string) error {
	e := newEnv("workload")
	day := e.fs.Int("day", 0, "day to describe")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	jobs := e.wl.Day(*day)
	st := workload.DayStats(jobs)
	fmt.Printf("workload %s day %d: %d jobs, %d unique templates, %d unique input sets\n",
		*e.name, *day, st.Jobs, st.UniqueTemplates, st.UniqueInputs)
	fmt.Printf("catalog: %d streams\n", len(e.wl.Cat.StreamNames()))
	shapes := make(map[string]int)
	for _, j := range jobs {
		shapes[e.wl.Templates[j.Template].Shape]++
	}
	var keys []string
	for k := range shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  shape %-14s %4d jobs\n", k, shapes[k])
	}
	return e.finish()
}

// names maps rule IDs to rule names for display.
func names(rs *cascades.RuleSet, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if ri, ok := rs.Info(id); ok {
			out = append(out, ri.Name)
		} else {
			out = append(out, fmt.Sprintf("rule#%d", id))
		}
	}
	return out
}

// cmdExplain compiles a job under the default configuration (or hints from
// -hints) and prints the per-operator planned-vs-actual breakdown.
func cmdExplain(args []string) error {
	e := newEnv("explain")
	hintsPath := e.fs.String("hints", "", "path to a plan-hint file to apply")
	e.fs.Parse(args)
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	rs := e.harness.Opt.Rules
	cfg := rs.DefaultConfig()
	if *hintsPath != "" {
		text, err := os.ReadFile(*hintsPath)
		if err != nil {
			return err
		}
		cfg, err = steering.ParseHints(string(text), rs)
		if err != nil {
			return err
		}
	}
	res, err := e.harness.Opt.Optimize(j.Root, cfg)
	if err != nil {
		return err
	}
	rep := e.harness.Executor.Explain(res.Plan, j.Day, j.ID)
	rep.Render(os.Stdout)
	return e.finish()
}

// cmdBundle is the offline "bundle build" step: group a day's jobs by
// default rule signature, run the discovery pipeline on one representative
// per group, and serialize the decision table into a versioned bundle for
// steerqd. With -inspect it decodes an existing bundle instead.
func cmdBundle(args []string) error {
	e := newEnv("bundle")
	day := e.fs.Int("day", 0, "day whose jobs feed the bundle")
	maxJobs := e.fs.Int("max-jobs", 0, "cap on jobs fed to the build (0 = whole day)")
	m := e.fs.Int("m", 300, "candidate configurations per group (M)")
	k := e.fs.Int("k", 10, "alternatives executed per group")
	version := e.fs.Uint64("bundle-version", 1, "version stamped into the bundle")
	created := e.fs.Int64("created-unix", 0, "created timestamp stamped into the bundle (unix seconds; keep fixed for reproducible artifacts)")
	out := e.fs.String("out", "", "bundle file to write")
	inspect := e.fs.String("inspect", "", "decode and print this bundle instead of building")
	e.fs.Parse(args)
	if *inspect != "" {
		return inspectBundle(*inspect)
	}
	if *out == "" {
		return fmt.Errorf("bundle: -out is required (or use -inspect)")
	}
	if err := e.build(); err != nil {
		return err
	}
	jobs := e.wl.Day(*day)
	if *maxJobs > 0 && len(jobs) > *maxJobs {
		jobs = jobs[:*maxJobs]
	}
	p := steering.NewPipeline(e.harness, xrand.New(*e.seed).Derive("cli-bundle"))
	p.MaxCandidates = *m
	p.ExecutePerJob = *k
	p.Workers = *e.workers
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(e.reg, "workload", *e.name)
	p.Obs = e.reg
	b, rep, err := p.BuildBundle(jobs, *version, *created)
	if err != nil {
		return err
	}
	if err := b.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("bundle v%d workload %s: %d jobs in %d groups -> %d entries (%d steered, %d fallback, %d failed)\n",
		b.Version, b.Workload, rep.Jobs, rep.Groups, len(b.Entries), rep.Steered, rep.Fallbacks, rep.Failed)
	fmt.Printf("wrote %s (checksum %016x)\n", *out, b.Checksum())
	return e.finish()
}

// inspectBundle decodes a bundle file and prints its decision table.
func inspectBundle(path string) error {
	b, err := bundle.ReadFile(path)
	if err != nil {
		return err
	}
	steered, fallbacks := 0, 0
	for _, en := range b.Entries {
		if en.Fallback {
			fallbacks++
		} else {
			steered++
		}
	}
	fmt.Printf("bundle v%d workload %s: %d entries (%d steered, %d fallback), checksum %016x, created %d\n",
		b.Version, b.Workload, len(b.Entries), steered, fallbacks, b.Checksum(), b.CreatedUnix)
	fmt.Printf("default: %s\n", b.Default.Hex())
	for i, en := range b.Entries {
		kind := "hit"
		if en.Fallback {
			kind = "fallback"
		}
		fmt.Printf("entry %d: %-8s sig=%s config=%s\n", i, kind, en.Signature.Hex(), en.Config.Hex())
	}
	return nil
}

// cmdSteer is the serving-path client: resolve a job's default rule
// signature (or take one as -sig) and ask either a running steerqd (-addr)
// or a bundle loaded in-process through the SDK (-bundle) for the steering
// decision. Both paths answer from the same decision table, byte for byte.
func cmdSteer(args []string) error {
	e := newEnv("steer")
	addr := e.fs.String("addr", "", "steerqd address host:port (HTTP mode)")
	bundlePath := e.fs.String("bundle", "", "bundle file consulted in-process through the SDK")
	sigHex := e.fs.String("sig", "", "default rule signature as hex (else resolved from -job/-script)")
	waitReady := e.fs.Duration("wait-ready", 0, "poll the daemon's /readyz up to this long before querying (HTTP mode)")
	e.fs.Parse(args)
	if (*addr == "") == (*bundlePath == "") {
		return fmt.Errorf("steer: exactly one of -addr or -bundle is required")
	}

	var sig bitvec.Vector
	built := false
	if *sigHex != "" {
		v, err := bitvec.ParseHex(*sigHex)
		if err != nil {
			return fmt.Errorf("steer: bad -sig: %w", err)
		}
		sig = v
	} else {
		if err := e.build(); err != nil {
			return err
		}
		built = true
		j, err := e.job()
		if err != nil {
			return err
		}
		res, err := e.harness.Opt.OptimizeCost(j.Root, e.harness.Opt.Rules.DefaultConfig())
		if err != nil {
			return err
		}
		sig = res.Signature
		fmt.Printf("job %s\n", j.ID)
	}
	fmt.Printf("signature: %s\n", sig.Hex())

	var d serve.Decision
	if *addr != "" {
		base := "http://" + *addr
		if *waitReady > 0 {
			if err := serve.WaitReady(base, *waitReady); err != nil {
				return err
			}
		}
		var err error
		if d, err = serve.Steer(base, sig); err != nil {
			return fmt.Errorf("steer: %s: %w", *addr, err)
		}
	} else {
		sdk := serve.NewSDK(e.reg)
		if err := sdk.LoadFile(*bundlePath); err != nil {
			return err
		}
		var ok bool
		if d, ok = sdk.Lookup(sig); !ok {
			return fmt.Errorf("steer: no bundle live after load")
		}
	}

	fmt.Printf("version: %d kind: %s\n", d.Version, d.Kind)
	fmt.Printf("config: %s\n", d.Config.Hex())
	if built {
		fmt.Printf("hints:\n%s", steering.HintsFor(d.Config, e.harness.Opt.Rules).String())
	}
	return e.finish()
}
