// Command steerq is the interactive CLI over the steering stack: run the
// discovery pipeline for one job of a generated workload (default plan, rule
// signature, job span, executed alternatives, recommended hints), group a
// day's jobs by rule signature, explain a plan's planned-vs-actual rows,
// build or inspect a decision-table bundle, and look a job up in one.
//
// Usage:
//
//	steerq pipeline [-workload A] [-job day/idx | -script file] [-m 300] [-k 10] [-workers N] [-fault-seed N]
//	steerq groups   [-workload A] [-day 0] [-top 15] [-workers N]
//	steerq workload [-workload A] [-day 0]
//	steerq explain  [-workload A] [-job day/idx | -script file] [-hints file]
//	steerq bundle   [-workload A] [-day 0] [-max-jobs N] [-m 300] [-k 10] [-workers N] [-fault-seed N] -out file.stqb
//	steerq bundle   -inspect file.stqb
//	steerq steer    (-addr host:port | -bundle file.stqb) [-sig hex | -job day/idx] [-wait-ready 5s]
//
// Every subcommand that builds a workload also takes -seed, -scale and
// -metrics-out; "steerq <command> -h" lists a subcommand's flags. Jobs are
// addressed as day/index within the deterministic generated workload, e.g.
// -job 0/17.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "steerq:", err)
		usage()
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "steerq:", err)
		os.Exit(1)
	}
}

// errUsage marks an unknown subcommand or a bad flag (exit status 2).
var errUsage = errors.New("usage")

// commands is every subcommand run dispatches, in usage order.
var commands = []struct {
	name string
	run  func(args []string, stdout io.Writer) error
}{
	{"pipeline", cmdPipeline},
	{"groups", cmdGroups},
	{"workload", cmdWorkload},
	{"explain", cmdExplain},
	{"bundle", cmdBundle},
	{"steer", cmdSteer},
}

// run dispatches one subcommand, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%w: no command", errUsage)
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], stdout)
		}
	}
	return fmt.Errorf("%w: unknown command %q", errUsage, args[0])
}

func usage() {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(os.Stderr, "usage: steerq <%s> [flags]\nrun \"steerq <command> -h\" for command flags\n", strings.Join(names, "|"))
}

// commonFlags selects the optional common flags a subcommand registers.
type commonFlags int

const (
	jobFlags    commonFlags = 1 << iota // -job and -script
	workersFlag                         // -workers
	faultFlag                           // -fault-seed
)

// env bundles the common flags and lazily built objects. A flag the
// subcommand did not register keeps its zero value.
type env struct {
	fs         *flag.FlagSet
	stdout     io.Writer
	name       string
	seed       uint64
	scale      float64
	jobRef     string
	script     string
	workers    int
	faultSeed  string
	metricsOut string
	wl         *workload.Workload
	harness    *abtest.Harness
	reg        *obs.Registry
}

// newEnv registers -workload, -seed, -scale and -metrics-out plus the
// optional common flags in with.
func newEnv(cmd string, stdout io.Writer, with commonFlags) *env {
	e := &env{
		fs:     flag.NewFlagSet(cmd, flag.ContinueOnError),
		stdout: stdout,
		reg:    obs.NewWithClock(obs.ClockFromEnv()),
	}
	e.fs.StringVar(&e.name, "workload", "A", "workload name (A, B or C)")
	e.fs.Uint64Var(&e.seed, "seed", 2021, "generator seed")
	e.fs.Float64Var(&e.scale, "scale", 0.01, "workload scale (1.0 = paper scale)")
	if with&jobFlags != 0 {
		e.fs.StringVar(&e.jobRef, "job", "0/0", "job reference day/index")
		e.fs.StringVar(&e.script, "script", "", "path to a SCOPE-like script (overrides -job)")
	}
	if with&workersFlag != 0 {
		e.fs.IntVar(&e.workers, "workers", 0, "worker goroutines (0 = $STEERQ_WORKERS or GOMAXPROCS); results are identical at any setting")
	}
	if with&faultFlag != 0 {
		e.fs.StringVar(&e.faultSeed, "fault-seed", "", "arm deterministic fault injection with this seed (empty = off)")
	}
	e.fs.StringVar(&e.metricsOut, "metrics-out", "", "write the JSON metrics snapshot to this file on exit")
	return e
}

// parse parses the subcommand's arguments. -h prints the flags to stdout and
// returns flag.ErrHelp; any other parse failure is a usage error.
func (e *env) parse(args []string) error {
	e.fs.SetOutput(io.Discard)
	err := e.fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		e.fs.SetOutput(e.stdout)
		e.fs.PrintDefaults()
		return err
	case err != nil:
		return fmt.Errorf("%w: %s: %v", errUsage, e.fs.Name(), err)
	case e.fs.NArg() > 0:
		return fmt.Errorf("%w: %s: unexpected argument %q", errUsage, e.fs.Name(), e.fs.Arg(0))
	}
	return nil
}

func (e *env) build() error {
	var p workload.Profile
	switch e.name {
	case "A":
		p = workload.ProfileA(e.scale, e.seed)
	case "B":
		p = workload.ProfileB(e.scale, e.seed)
	case "C":
		p = workload.ProfileC(e.scale, e.seed)
	default:
		return fmt.Errorf("unknown workload %q", e.name)
	}
	e.wl = workload.Generate(p)
	opt := rules.NewOptimizer(cost.NewEstimated(e.wl.Cat))
	opt.SetObs(e.reg)
	e.harness = abtest.New(e.wl.Cat, opt, e.seed+1)
	e.harness.SetObs(e.reg)
	e.harness.Workers = e.workers
	fp, err := faults.ParsePlan(e.faultSeed)
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
	if e.metricsOut == "" {
		return nil
	}
	return e.reg.Snapshot().WriteFile(e.metricsOut)
}

// pipeline is the discovery pipeline pipeline and bundle run jobs through:
// M candidates drawn from the named stream, K executed alternatives, a
// compile cache and the command's registry.
func (e *env) pipeline(stream string, m, k int) *steering.Pipeline {
	p := steering.NewPipeline(e.harness, xrand.New(e.seed).Derive(stream))
	p.MaxCandidates = m
	p.ExecutePerJob = k
	p.Workers = e.workers
	p.Cache = steering.NewCompileCache()
	p.Cache.SetObs(e.reg, "workload", e.name)
	p.Obs = e.reg
	return p
}

// job resolves the -script / -job flags into a compiled job.
func (e *env) job() (*workload.Job, error) {
	if e.script != "" {
		src, err := os.ReadFile(e.script)
		if err != nil {
			return nil, err
		}
		root, err := scopeql.Compile(string(src), e.wl.Cat)
		if err != nil {
			return nil, err
		}
		return &workload.Job{ID: e.script, Workload: e.name, Script: string(src), Root: root}, nil
	}
	parts := strings.SplitN(e.jobRef, "/", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -job %q, want day/index", e.jobRef)
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

// cmdPipeline runs one job through the discovery pipeline: its default run
// (the baseline every alternative is judged against), default rule
// signature, job span by category, executed alternatives and recommended
// hints.
func cmdPipeline(args []string, stdout io.Writer) error {
	e := newEnv("pipeline", stdout, jobFlags|workersFlag|faultFlag)
	m := e.fs.Int("m", 300, "candidate configurations (M)")
	k := e.fs.Int("k", 10, "alternatives executed per job")
	if err := e.parse(args); err != nil {
		return err
	}
	if err := e.build(); err != nil {
		return err
	}
	j, err := e.job()
	if err != nil {
		return err
	}
	a, err := e.pipeline("cli-pipeline", *m, *k).AnalyzeCtx(context.Background(), j)
	if err != nil {
		return err
	}
	rs := e.harness.Opt.Rules
	fmt.Fprintf(stdout, "job %s: default runtime %.1fs, cost %.2f, span %d rules, %d candidates compiled\n",
		j.ID, a.Default.Metrics.RuntimeSec, a.Default.EstCost, a.Span.Count(), len(a.Candidates))
	fmt.Fprintf(stdout, "default signature (%d rules): %v\n", a.Default.Signature.Count(), rs.Names(a.Default.Signature.Ones()))
	for cat, v := range steering.SpanByCategory(a.Span, rs) {
		if !v.IsEmpty() {
			fmt.Fprintf(stdout, "span %s (%d rules): %v\n", cascades.Category(cat), v.Count(), rs.Names(v.Ones()))
		}
	}
	for i, t := range a.Trials {
		if t.Err != nil {
			fmt.Fprintf(stdout, "  alt%d: compile failed: %v\n", i, t.Err)
			continue
		}
		if t.FellBack {
			fmt.Fprintf(stdout, "  alt%d: fell back to default config after %d attempts\n", i, t.Attempts)
			continue
		}
		pct := a.PercentChange(&a.Trials[i], steering.MetricRuntime)
		d := steering.Diff(a.Default.Signature, t.Signature)
		fmt.Fprintf(stdout, "  alt%d: runtime %.1fs (%+.1f%%) cost %.2f  -%v +%v\n",
			i, t.Metrics.RuntimeSec, pct, t.EstCost, rs.Names(d.OnlyDefault), rs.Names(d.OnlyNew))
	}
	best := a.BestConfig(steering.MetricRuntime)
	fmt.Fprintf(stdout, "best runtime: %.1fs (%+.1f%% vs default)\n",
		best.Metrics.RuntimeSec, a.PercentChange(best, steering.MetricRuntime))
	if rb := a.Robustness; !rb.IsZero() {
		st := e.harness.Faults.Stats()
		fmt.Fprintf(stdout, "fault injection: %d injected (fail=%d hang=%d corrupt=%d) over %d decisions\n",
			st.Injected(), st.Fails, st.Hangs, st.Corrupts, st.Decisions)
		fmt.Fprintf(stdout, "  survived via %d retries (%d compile, %d exec), %d timeouts, %d corrupted plans caught, %d fallbacks\n",
			rb.Retries(), rb.CompileRetries, rb.ExecRetries, rb.Timeouts, rb.Corruptions, rb.Fallbacks)
	}
	if cfg, ok := steering.MinimalConfig(a, rs); ok {
		fmt.Fprintf(stdout, "recommended plan hint for job group %s...:\n%s",
			a.Default.Signature.Hex()[:16], steering.HintsFor(cfg, rs))
	}
	return e.finish()
}

func cmdGroups(args []string, stdout io.Writer) error {
	e := newEnv("groups", stdout, workersFlag)
	day := e.fs.Int("day", 0, "day to group")
	top := e.fs.Int("top", 15, "groups to print")
	if err := e.parse(args); err != nil {
		return err
	}
	if err := e.build(); err != nil {
		return err
	}
	jobs := e.wl.Day(*day)
	g := steering.NewGrouper(e.harness)
	groups, err := g.Group(jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s day %d: %d jobs in %d rule-signature job groups\n",
		e.name, *day, len(jobs), len(groups))
	rs := e.harness.Opt.Rules
	for i, grp := range groups {
		if i >= *top {
			break
		}
		fmt.Fprintf(stdout, "  group %2d: %4d jobs, signature %d rules: %v\n",
			i+1, len(grp.Jobs), grp.Signature.Count(), rs.Names(grp.Signature.Ones()))
	}
	return e.finish()
}

func cmdWorkload(args []string, stdout io.Writer) error {
	e := newEnv("workload", stdout, 0)
	day := e.fs.Int("day", 0, "day to describe")
	if err := e.parse(args); err != nil {
		return err
	}
	if err := e.build(); err != nil {
		return err
	}
	jobs := e.wl.Day(*day)
	st := workload.DayStats(jobs)
	fmt.Fprintf(stdout, "workload %s day %d: %d jobs, %d unique templates, %d unique input sets\n",
		e.name, *day, st.Jobs, st.UniqueTemplates, st.UniqueInputs)
	fmt.Fprintf(stdout, "catalog: %d streams\n", len(e.wl.Cat.StreamNames()))
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
		fmt.Fprintf(stdout, "  shape %-14s %4d jobs\n", k, shapes[k])
	}
	return e.finish()
}

// names maps rule IDs to rule names for display.
// cmdExplain compiles a job under the default configuration (or hints from
// -hints) and prints the per-operator planned-vs-actual breakdown. The run
// draws the noise of the pipeline's default trial, so its runtime under the
// default configuration is the one pipeline reports.
func cmdExplain(args []string, stdout io.Writer) error {
	e := newEnv("explain", stdout, jobFlags)
	hintsPath := e.fs.String("hints", "", "path to a plan-hint file to apply")
	if err := e.parse(args); err != nil {
		return err
	}
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
	rep := e.harness.Executor.Explain(res.Plan, j.Day, steering.DefaultTag(j.ID))
	rep.Render(stdout)
	return e.finish()
}

// cmdBundle is the offline "bundle build" step: group a day's jobs by
// default rule signature, run the discovery pipeline on one representative
// per group, and serialize the decision table into a versioned bundle for
// steerqd. With -inspect it decodes an existing bundle instead.
func cmdBundle(args []string, stdout io.Writer) error {
	e := newEnv("bundle", stdout, workersFlag|faultFlag)
	day := e.fs.Int("day", 0, "day whose jobs feed the bundle")
	maxJobs := e.fs.Int("max-jobs", 0, "cap on jobs fed to the build (0 = whole day)")
	m := e.fs.Int("m", 300, "candidate configurations per group (M)")
	k := e.fs.Int("k", 10, "alternatives executed per group")
	version := e.fs.Uint64("bundle-version", 1, "version stamped into the bundle")
	created := e.fs.Int64("created-unix", 0, "created timestamp stamped into the bundle (unix seconds; keep fixed for reproducible artifacts)")
	out := e.fs.String("out", "", "bundle file to write")
	inspect := e.fs.String("inspect", "", "decode and print this bundle instead of building")
	if err := e.parse(args); err != nil {
		return err
	}
	if *inspect != "" {
		return inspectBundle(*inspect, stdout)
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
	b, rep, err := e.pipeline("cli-bundle", *m, *k).BuildBundleCtx(context.Background(), jobs, *version, *created)
	if err != nil {
		return err
	}
	if err := b.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bundle v%d workload %s: %d jobs in %d groups -> %d entries (%d steered, %d fallback, %d failed)\n",
		b.Version, b.Workload, rep.Jobs, rep.Groups, len(b.Entries), rep.Steered, rep.Fallbacks, rep.Failed)
	fmt.Fprintf(stdout, "wrote %s (checksum %016x)\n", *out, b.Checksum())
	return e.finish()
}

// inspectBundle decodes a bundle file and prints its decision table.
func inspectBundle(path string, stdout io.Writer) error {
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
	fmt.Fprintf(stdout, "bundle v%d workload %s: %d entries (%d steered, %d fallback), checksum %016x, created %d\n",
		b.Version, b.Workload, len(b.Entries), steered, fallbacks, b.Checksum(), b.CreatedUnix)
	fmt.Fprintf(stdout, "default: %s\n", b.Default.Hex())
	for i, en := range b.Entries {
		kind := "hit"
		if en.Fallback {
			kind = "fallback"
		}
		fmt.Fprintf(stdout, "entry %d: %-8s sig=%s config=%s\n", i, kind, en.Signature.Hex(), en.Config.Hex())
	}
	return nil
}

// cmdSteer is the serving-path client: resolve a job's default rule
// signature (or take one as -sig) and ask either a running steerqd (-addr)
// or a bundle loaded in-process through the SDK (-bundle) for the steering
// decision. Both paths answer from the same decision table, byte for byte.
func cmdSteer(args []string, stdout io.Writer) error {
	e := newEnv("steer", stdout, jobFlags)
	addr := e.fs.String("addr", "", "steerqd address host:port (HTTP mode)")
	bundlePath := e.fs.String("bundle", "", "bundle file consulted in-process through the SDK")
	sigHex := e.fs.String("sig", "", "default rule signature as hex (else resolved from -job/-script)")
	waitReady := e.fs.Duration("wait-ready", 0, "poll the daemon's /readyz up to this long before querying (HTTP mode)")
	if err := e.parse(args); err != nil {
		return err
	}
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
		fmt.Fprintf(stdout, "job %s\n", j.ID)
	}
	fmt.Fprintf(stdout, "signature: %s\n", sig.Hex())

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

	fmt.Fprintf(stdout, "version: %d kind: %s\n", d.Version, d.Kind)
	fmt.Fprintf(stdout, "config: %s\n", d.Config.Hex())
	if built {
		fmt.Fprintf(stdout, "hints:\n%s", steering.HintsFor(d.Config, e.harness.Opt.Rules).String())
	}
	return e.finish()
}
