package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one named metric. Every number the benchmark prints is
// declared here once; BENCHMARK.json, -list and README.md are renderings of
// these tables (bench_test.go pins the first two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression; 0 on per-layer
	// metrics, which carry no bound.
	Bound float64
	// Doc says what is measured and, per workload, what one "op" is.
	Doc string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move (choosing-metrics §3: written down before measuring).
	Moves string
}

// workloadDef is one named workload and the one-line reason it exists.
type workloadDef struct {
	Name string
	Why  string
	Run  func(rc *runCtx) (*result, error)
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees. Every one is reported
// by every workload; "op" is the workload's unit of delivered work — one job
// taken from script text to its served decision (discover_*), one learned
// example (learn_groups), one correct reply (serve_*). Their timings are speed-normalised (calib.go):
// seconds of the sizing box at rest, not of whatever the shared box was
// doing during the run.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25,
		Doc: "delivered work per speed-normalised second of wall time, median over the units of work: jobs/s per day pass (discover_*), examples/s per group (learn_groups), correct replies/s per 1 s phase (serve_*)"},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "median speed-normalised time a caller waits for one result: a day pass first script byte -> last correct lookup (discover_*, ROADMAP's one number), one group arms -> reloaded model (learn_groups), one request (serve_*, median over phases of the phase p50)"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25,
		Doc: "speed-normalised user+system CPU of the process doing the work per op, median over the units of work: the benchmark process (offline workloads), the steerqd child (serve_*); separates cheaper from merely less contended"},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Doc: "median speed-normalised time of the three set-ups made in one run: generate the workload and its days, group, fill caches (discover_rerun), synthesize and write the bundle, start steerqd until serve.WaitReady (serve_*)"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload never enters reads 0 there — that is the measurement (no calls,
// no busy time), and the separation the workloads exist to show. Counts are
// per traced unit of work: a day pass (discover_*) or a group (learn_groups).
var perLayer = []metricDef{
	{Name: "scopeql.compile_us", Unit: "us", Better: lower, Doc: "median wall time of one scopeql.Compile", Moves: "op_p50_ms on discover_rerun (~6% of a pass); negligible elsewhere"},
	{Name: "scopeql.mb_per_s", Unit: "MB/s", Better: higher, Doc: "script bytes compiled per second of scopeql.Compile time", Moves: "op_p50_ms on discover_rerun"},

	{Name: "cascades.group_us", Unit: "us", Better: lower, Doc: "Grouper.Group wall time per job (one plan-less OptimizeCost each)", Moves: "ops_per_s on discover_cold and discover_rerun; the only cascades cost left on discover_rerun"},
	{Name: "cascades.compiles", Unit: "count", Better: lower, Doc: "steerq_cascades_compiles_total per traced unit", Moves: "ops_per_s on discover_cold"},
	{Name: "cascades.noplan_share", Unit: "ratio", Better: lower, Doc: "compiles that ended with no plan / compiles (wasted attempts)", Moves: "ops_per_s on discover_cold"},
	{Name: "cascades.rule_firings", Unit: "count", Better: lower, Doc: "steerq_cascades_rule_firings_total per traced unit", Moves: "ops_per_s on discover_cold"},

	{Name: "steering.recompile_ms", Unit: "ms", Better: lower, Doc: "median wall time of one representative's Pipeline.Recompile (default trial, span, M candidates)", Moves: "ops_per_s on discover_cold"},
	{Name: "steering.recompile_share", Unit: "ratio", Better: lower, Doc: "Pipeline.Recompile time / traced pass time", Moves: "bounds what a cascades/steering gain can give ops_per_s: large on discover_cold, small on discover_rerun"},
	{Name: "steering.candidates", Unit: "count", Better: higher, Doc: "candidate configurations generated per traced unit (FootprintStats.Candidates)", Moves: "guards ops_per_s on discover_*: faster because it searched less shows here"},
	{Name: "steering.us_per_candidate", Unit: "us", Better: lower, Doc: "Recompile time / candidates", Moves: "ops_per_s on discover_cold (compile) and discover_rerun (cache probe)"},
	{Name: "steering.cache_hit_share", Unit: "ratio", Better: higher, Doc: "CompileCache hits / probes during the traced pass", Moves: "ops_per_s on discover_rerun; prediction on discover_cold is no change"},
	{Name: "steering.cache_entries", Unit: "count", Better: lower, Doc: "CompileCache.Stats().Entries after the traced pass", Moves: "peak_rss_mb on discover_rerun"},
	{Name: "steering.fp_avoided_share", Unit: "ratio", Better: higher, Doc: "FootprintStats.Avoided / Candidates", Moves: "ops_per_s on discover_cold"},
	{Name: "steering.minimal_ms", Unit: "ms", Better: lower, Doc: "MinimalConfig time per traced unit", Moves: "none expected (<0.1% of a pass)"},

	{Name: "abtest.execute_ms", Unit: "ms", Better: lower, Doc: "median wall time of one representative's Pipeline.Execute", Moves: "ops_per_s on discover_rerun"},
	{Name: "abtest.trials", Unit: "count", Better: higher, Doc: "abtest.exec spans recorded by the program's registry per traced unit", Moves: "guards ops_per_s: fewer trials is less evidence"},
	{Name: "abtest.compile_s", Unit: "s", Better: lower, Doc: "sum of the program's abtest.compile spans per traced unit", Moves: "ops_per_s on discover_rerun"},
	{Name: "exec.run_s", Unit: "s", Better: lower, Doc: "sum of the program's abtest.exec spans (Executor.Run) per traced unit", Moves: "ops_per_s on discover_rerun and learn_groups"},
	{Name: "exec.run_us", Unit: "us", Better: lower, Doc: "exec.run_s / trials", Moves: "ops_per_s on discover_rerun and learn_groups"},
	{Name: "exec.share", Unit: "ratio", Better: lower, Doc: "(exec.run_s + abtest.compile_s) / traced round time", Moves: "large on discover_rerun, <=20% on discover_cold"},

	{Name: "par.items", Unit: "count", Better: higher, Doc: "compiles dispatched through the scheduler per traced unit (Analysis.Sched)", Moves: "ops_per_s on discover_cold only"},
	{Name: "par.steals", Unit: "count", Better: lower, Doc: "cross-worker steals per traced unit (diagnostic, timing dependent)", Moves: "ops_per_s on discover_cold only"},
	{Name: "par.merges", Unit: "count", Better: lower, Doc: "serial merge phases per traced unit", Moves: "ops_per_s on discover_cold only"},
	{Name: "par.speedup", Unit: "ratio", Better: higher, Doc: "one day pass at Workers=1 / at the workload's Workers; 1 when both are 1, 0 when par is not on the path", Moves: "bounds what par can give ops_per_s on discover_cold"},

	{Name: "learning.arms_ms", Unit: "ms", Better: lower, Doc: "median CandidateArms time per group", Moves: "ops_per_s on learn_groups"},
	{Name: "learning.collect_ms", Unit: "ms", Better: lower, Doc: "median Collect time per group (every arm executed for every member)", Moves: "ops_per_s on learn_groups"},
	{Name: "learning.trials", Unit: "count", Better: higher, Doc: "arm executions per traced unit (examples x arms)", Moves: "guards ops_per_s on learn_groups"},
	{Name: "learning.evaluate_ms", Unit: "ms", Better: lower, Doc: "median Evaluate time per group", Moves: "none expected (<1%)"},
	{Name: "learning.save_load_ms", Unit: "ms", Better: lower, Doc: "median Save+Load+Choose time per group", Moves: "none expected (<1%)"},
	{Name: "nn.train_ms", Unit: "ms", Better: lower, Doc: "median learning.Train time per group", Moves: "ops_per_s on learn_groups; no other workload trains"},
	{Name: "nn.train_share", Unit: "ratio", Better: lower, Doc: "Train time / traced round time", Moves: "bounds what an nn gain can give ops_per_s on learn_groups"},

	{Name: "bundle.encode_us", Unit: "us", Better: lower, Doc: "median Bundle.Encode", Moves: "reload_visible_ms on serve_reload; <1% of a discover pass"},
	{Name: "bundle.decode_us", Unit: "us", Better: lower, Doc: "median bundle.Decode of the workload's bundle", Moves: "reload_visible_ms on serve_reload"},
	{Name: "bundle.write_us", Unit: "us", Better: lower, Doc: "median Bundle.WriteFile", Moves: "setup_s on serve_*"},
	{Name: "bundle.bytes", Unit: "count", Better: lower, Doc: "encoded bundle size", Moves: "reload_visible_ms on serve_reload"},
	{Name: "bundle.entries", Unit: "count", Better: higher, Doc: "entries in the workload's bundle", Moves: "fixed by the workload"},

	{Name: "serve.lookup_ns", Unit: "ns", Better: lower, Doc: "mean in-process SDK.Lookup over the workload's own signature stream", Moves: "op_p50_ms on serve_* (a ~1/1000 share: the wire dominates)"},
	{Name: "serve.handler_us", Unit: "us", Better: lower, Doc: "mean Server.Handler().ServeHTTP against a recorder", Moves: "op_p50_ms and cpu_ms_per_op on serve_*"},
	{Name: "serve.wire_us", Unit: "us", Better: lower, Doc: "steer_p50_us - serve.handler_us: net/http, loopback and the client", Moves: "op_p50_ms on serve_*"},
	{Name: "serve.hit_share", Unit: "ratio", Better: higher, Doc: "daemon steerq_serve_lookups_total{outcome=hit} / replies", Moves: "fixed by the signature stream"},
	{Name: "serve.fallback_share", Unit: "ratio", Better: lower, Doc: "daemon lookups with outcome=fallback / replies", Moves: "fixed by the signature stream"},
	{Name: "serve.default_share", Unit: "ratio", Better: lower, Doc: "daemon lookups with outcome=default / replies", Moves: "fixed by the signature stream"},
	{Name: "serve.load_us", Unit: "us", Better: lower, Doc: "median SDK.LoadBytes of the workload's bundle", Moves: "reload_visible_ms and steer_p99_us on serve_reload; prediction on serve_steady is no change"},
	{Name: "serve.newtable_us", Unit: "us", Better: lower, Doc: "median serve.NewTable of the workload's bundle", Moves: "reload_visible_ms on serve_reload"},
	{Name: "serve.reload_post_ms", Unit: "ms", Better: lower, Doc: "median POST /v1/bundles round trip", Moves: "reload_visible_ms on serve_reload"},
	{Name: "serve.swaps", Unit: "count", Better: higher, Doc: "daemon steerq_serve_bundle_swaps_total during the measured phases", Moves: ">0 only on serve_reload"},
	{Name: "serve.rejected", Unit: "count", Better: lower, Doc: "daemon steerq_serve_bundle_rejected_total during the measured phases", Moves: "0 everywhere"},

	{Name: "jobs_per_s", Unit: "1/s", Better: higher, Doc: "jobs taken from script text to a served decision per raw second of untraced pass time (ops_per_s before speed normalisation)", Moves: "follows ops_per_s on discover_*"},
	{Name: "decisions_per_s", Unit: "1/s", Better: higher, Doc: "group decisions (bundle entries) produced per raw second of untraced pass time", Moves: "follows ops_per_s on discover_*; the two differ by the seed's jobs per group"},
	{Name: "allocs_per_job", Unit: "count", Better: lower, Doc: "runtime.MemStats.Mallocs delta over an untraced pass / jobs", Moves: "peak_rss_mb and cpu_ms_per_op on discover_*"},
	{Name: "steered_gain_pct", Unit: "%", Better: higher, Doc: "mean runtime reduction of Harness.RunSteered (Steer = the freshly loaded SDK) vs the default trial over every group representative; exact at a fixed seed", Moves: "guards ops_per_s on discover_*: faster because it searched less"},
	{Name: "learned_gain_pct", Unit: "%", Better: higher, Doc: "test-split mean runtime, learned arm vs default arm (Evaluation.Summarize); exact at a fixed seed", Moves: "guards ops_per_s on learn_groups"},
	{Name: "steer_p50_us", Unit: "us", Better: lower, Doc: "median over phases of the phase p50 request latency", Moves: "op_p50_ms on serve_*"},
	{Name: "steer_p99_us", Unit: "us", Better: lower, Doc: "median over phases of the phase p99 request latency (>=5,000 samples a phase); not end-to-end: its run-to-run spread on a shared 2-core box exceeds any usable bound", Moves: "rises first on serve_reload when serve.load_us rises"},
	{Name: "reload_visible_ms", Unit: "ms", Better: lower, Doc: "POST start -> first lookup reply carrying the new version, median over the reloads", Moves: "serve_reload only"},

	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Doc: "VmHWM at the end of the run of the process doing the work: the benchmark (offline workloads), the steerqd child (serve_*); not end-to-end: a Go heap's high-water mark moves ~10% run to run with GC timing", Moves: "follows allocs_per_job and steering.cache_entries on discover_*, bundle.bytes on serve_*"},
	{Name: "workload.generate_ms", Unit: "ms", Better: lower, Doc: "workload.Generate", Moves: "setup_s only"},
	{Name: "workload.day_ms", Unit: "ms", Better: lower, Doc: "median Workload.Day", Moves: "setup_s only"},
	{Name: "bench.kernel_ms", Unit: "ms", Better: lower, Doc: "median reference-kernel time during the run; 25 is the sizing box at rest, and end-to-end timings are scaled by 25 / this", Moves: "nothing in the repository moves it; it is the box"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Doc: "median traced round vs median untraced round in the same run", Moves: "must stay small: end-to-end numbers come from untraced rounds only"},
	{Name: "bench.round_spread_pct", Unit: "%", Better: lower, Doc: "(max-min)/median of ops_per_s over the run's untraced rounds", Moves: "how steady the box was during this run"},
}

// manifest is BENCHMARK.json: exactly the keys the driver's contract names.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestNamed  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one driver run measures; with three set-ups and
// the build check a run stays near 20 s, so 4 + 22 x 5 runs fit the cap.
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestNamed{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

// writeManifest renders BENCHMARK.json.
func writeManifest(w io.Writer) error {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return fmt.Errorf("benchmark: encode manifest: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeList prints the workload and metric tables as markdown — the tables
// of README.md are this output.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "| workload | why |")
	fmt.Fprintln(w, "|---|---|")
	for _, d := range workloads() {
		fmt.Fprintf(w, "| `%s` | %s |\n", d.Name, d.Why)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound | what it measures |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %g%% | %s |\n", d.Name, d.Unit, d.Better, 100*d.Bound, d.Doc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | better | what it measures | should move |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Doc, d.Moves)
	}
}
