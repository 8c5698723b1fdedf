// Command benchmark is steerq's one benchmark for the whole path — raw
// scripts in, served decision out — over five workloads that each put a
// different layer on the critical path (see README.md in this directory).
//
// It measures the layers only from outside: it times calls into their public
// functions and reads the counters and spans the program already publishes
// (obs.Registry.Snapshot, the daemon's /metrics). The offline layers are
// wired exactly as `steerq bundle` wires them; the serving layers run as a
// real steerqd child process.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// is the driver's contract (BENCHMARK.json): one workload per process, the
// last line of standard output one JSON object. With no -workload every
// workload runs, untraced then traced, and benchmark/out/result.json keeps
// the lot. -aa is the contract's acceptance check run locally.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizing are the benchmark's frozen constants: identical on every commit so
// two commits measure the same work. README.md says how they were chosen.
type sizing struct {
	// Discovery (Workload A): a pass analyses one whole day with the
	// pipeline parameters `steerq bundle` defaults to.
	Scale         float64 `json:"scale"`
	Days          int     `json:"days"`
	Candidates    int     `json:"candidates"`
	ExecutePerJob int     `json:"execute_per_job"`

	// Learning (Workload B).
	LearnDays    int `json:"learn_days"`
	LearnGroups  int `json:"learn_groups"`
	LearnMembers int `json:"learn_members"`
	LearnBase    int `json:"learn_base"`
	LearnArms    int `json:"learn_arms"`

	// Serving.
	Entries       int     `json:"entries"`
	FallbackShare float64 `json:"fallback_share"`
	MissShare     float64 `json:"miss_share"`
	ZipfS         float64 `json:"zipf_s"`
	Stream        int     `json:"stream"`
	WarmUpMs      int     `json:"warm_up_ms"`
	PhaseMs       int     `json:"phase_ms"`
	ReloadMs      int     `json:"reload_ms"`

	// SetupReps is how many times a run sets up; setup_s is their median.
	SetupReps int `json:"setup_reps"`
}

var fullSizing = sizing{
	Scale: 0.01, Days: 2, Candidates: 300, ExecutePerJob: 10,
	LearnDays: 10, LearnGroups: 5, LearnMembers: 40, LearnBase: 3, LearnArms: 4,
	Entries: 20000, FallbackShare: 0.1, MissShare: 0.1, ZipfS: 1.1, Stream: 1 << 16,
	WarmUpMs: 1000, PhaseMs: 1000, ReloadMs: 250,
	SetupReps: 3,
}

// quickSizing is the smoke test's: every code path, none of the weight.
var quickSizing = sizing{
	Scale: 0.002, Days: 1, Candidates: 24, ExecutePerJob: 4,
	LearnDays: 3, LearnGroups: 1, LearnMembers: 16, LearnBase: 2, LearnArms: 4,
	Entries: 5000, FallbackShare: 0.1, MissShare: 0.1, ZipfS: 1.1, Stream: 1 << 10,
	WarmUpMs: 50, PhaseMs: 150, ReloadMs: 60,
	SetupReps: 2,
}

// runCtx is one workload run's arguments.
type runCtx struct {
	seed    uint64
	seconds float64
	sz      sizing
	steerqd string  // daemon binary (serve workloads)
	scratch string  // directory for bundles and address files
	tr      *tracer // non-nil on a traced run
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

// another reports whether an offline workload should start round number
// round: rounds of identical work repeat until the run's seconds are spent,
// and a traced run, whose odd rounds are the traced ones, makes at least two.
func (rc *runCtx) another(round int, start time.Time) bool {
	return round == 0 || (rc.traced() && round < 2) || now().Sub(start).Seconds() < rc.seconds
}

// endToEndMetrics reduces a run's speed-normalised per-unit samples to the
// end-to-end metrics: each is the median over the units of work.
func endToEndMetrics(opsPerS, opMs, cpuMsPerOp []float64, setupS float64) map[string]float64 {
	return map[string]float64{
		"ops_per_s":     median(opsPerS),
		"op_p50_ms":     median(opMs),
		"cpu_ms_per_op": median(cpuMsPerOp),
		"setup_s":       setupS,
	}
}

// benchMetrics adds the traced run's figures about the benchmark itself.
func benchMetrics(m map[string]float64, sp *speedometer, overheadPct float64, roundOps []float64) {
	m["bench.kernel_ms"] = median(sp.kernelMs)
	m["bench.trace_overhead_pct"] = overheadPct
	m["bench.round_spread_pct"] = spreadPct(roundOps)
}

// workers is the offline fan-out where a workload asks for one.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// callers is the load client's connection count.
func callers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// result is one run's outcome: the oracle tally and the named metrics.
type result struct {
	tally
	Metrics map[string]float64
}

// tally counts oracle checks. Every output the benchmark sees is checked;
// a breach is a failed operation, never a dropped sample.
type tally struct {
	Attempted int64
	Failed    int64
	Breaches  []string // first few, for the report
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.Attempted++
	if !ok {
		t.Failed++
		if len(t.Breaches) < 8 {
			t.Breaches = append(t.Breaches, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, b := range o.Breaches {
		if len(t.Breaches) < 8 {
			t.Breaches = append(t.Breaches, b)
		}
	}
}

// wireMetric and wireResult are the driver's last-line JSON.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// wire renders res against the metric table defs: every declared metric
// must be present — a missing one is a bug in the workload, not a zero.
func wire(res *result, defs []metricDef) (wireResult, error) {
	out := wireResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("benchmark: metric %s not reported", d.Name)
		}
		out.Metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	if len(out.Metrics) != len(res.Metrics) {
		return out, fmt.Errorf("benchmark: %d metrics reported, %d declared", len(res.Metrics), len(out.Metrics))
	}
	return out, nil
}

// printTable prints every metric by name with its unit.
func printTable(workload string, traced bool, res *result, defs []metricDef) {
	kind := "end-to-end (untraced rounds)"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("== %s: %s ==\n", workload, kind)
	for _, d := range defs {
		fmt.Printf("%-28s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Printf("%-28s %16.6f ratio (%d failed of %d checked)\n", "fail_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, b := range res.Breaches {
		fmt.Printf("  oracle breach: %s\n", b)
	}
}

// runOne runs one workload once, untraced or traced, and prints its table.
func runOne(def workloadDef, rc *runCtx, outDir string) (wireResult, error) {
	res, err := def.Run(rc)
	if err != nil {
		return wireResult{}, fmt.Errorf("benchmark: %s: %w", def.Name, err)
	}
	defs := endToEnd
	if rc.traced() {
		defs = perLayer
		if err := rc.tr.write(outDir, def.Name, rc.seed); err != nil {
			return wireResult{}, err
		}
	}
	printTable(def.Name, rc.traced(), res, defs)
	return wire(res, defs)
}

// environment is what a result was measured on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"offline_workers"`
	Callers    int    `json:"load_callers"`
}

func currentEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, GoVersion: runtime.Version(), Workers: workers(), Callers: callers()}
}

// resultFile is benchmark/out/result.json, written when every workload runs.
type resultFile struct {
	Seed        uint64                `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Environment environment           `json:"environment"`
	Constants   sizing                `json:"constants"`
	Untraced    map[string]wireResult `json:"end_to_end"`
	Traced      map[string]wireResult `json:"per_layer"`
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 2021, "generator seed; the program sees only generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long the rounds measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke-test sizing")
	list := fs.Bool("list", false, "print the workload and metric tables (markdown) and exit")
	manifestOut := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	aa := fs.Int("aa", 0, "A/A check: run every workload on this many seeds, twice, and hold each end-to-end metric's spread and drift to its bound")
	steerqd := fs.String("steerqd", "", "steerqd binary (built by run.sh)")
	scratch := fs.String("scratch", "", "directory in which the run makes, and removes, its scratch directory (default: the system's)")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json and result.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *list:
		writeList(os.Stdout)
		return nil
	case *manifestOut:
		return writeManifest(os.Stdout)
	}

	if *aa > 0 {
		return runAA(*aa, *seconds, *steerqd, *scratch)
	}
	dir, err := os.MkdirTemp(*scratch, "steerq-benchmark-")
	if err != nil {
		return fmt.Errorf("benchmark: scratch: %w", err)
	}
	defer os.RemoveAll(dir)
	sz := fullSizing
	if *quick {
		sz = quickSizing
	}
	newCtx := func(traced bool) *runCtx {
		rc := &runCtx{seed: *seed, seconds: *seconds, sz: sz, steerqd: *steerqd, scratch: dir}
		if traced {
			rc.tr = newTracer()
		}
		return rc
	}

	if *name != "all" {
		def, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("benchmark: unknown workload %q", *name)
		}
		out, err := runOne(def, newCtx(*trace == 1), *outDir)
		if err != nil {
			return err
		}
		return printLastLine(out)
	}

	file := resultFile{Seed: *seed, Seconds: *seconds, Environment: currentEnvironment(), Constants: sz,
		Untraced: map[string]wireResult{}, Traced: map[string]wireResult{}}
	var failed []string
	for _, def := range workloads() {
		for _, traced := range []bool{false, true} {
			out, err := runOne(def, newCtx(traced), *outDir)
			if err != nil {
				return err
			}
			if traced {
				file.Traced[def.Name] = out
			} else {
				file.Untraced[def.Name] = out
			}
			if !out.Correct {
				failed = append(failed, def.Name)
			}
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return fmt.Errorf("benchmark: encode result: %w", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("benchmark: out dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchmark: write result: %w", err)
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("benchmark: oracle breaches on %v", failed)
	}
	return nil
}

// printLastLine prints the driver's JSON object; an oracle breach still
// prints (correct=false, failed>0) and exits 0 so the driver sees the count.
func printLastLine(out wireResult) error {
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("benchmark: encode result: %w", err)
	}
	fmt.Printf("%s\n", data)
	return nil
}
