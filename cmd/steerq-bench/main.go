// Command steerq-bench regenerates every table and figure of the paper on
// the simulated stack and prints them in order. Use -exp to run some of the
// experiments (an unknown name exits 2 before any work) and -workers to fan
// analysis out across goroutines (results are identical at any worker
// count). Performance is measured by benchmark/ (see README "Benchmark"),
// not here; -cpuprofile/-memprofile profile a run, and -metrics-out writes
// its JSON metrics snapshot.
//
// Usage:
//
//	steerq-bench [-scale 0.01] [-seed 2021] [-m 300] [-workers N] [-exp all|table1..table5|fig1..fig8|ablations|extensions[,...]] [-metrics-out m.json] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"steerq/internal/experiments"
	"steerq/internal/faults"
)

// main delegates to realMain so deferred profile flushes run before exit
// (os.Exit skips defers).
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		scale      = flag.Float64("scale", 0.01, "workload scale (1.0 = the paper's 150K daily jobs)")
		seed       = flag.Uint64("seed", 2021, "experiment seed")
		m          = flag.Int("m", 300, "candidate configurations per analyzed job (paper: up to 1000)")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = $STEERQ_WORKERS or GOMAXPROCS); results are identical at any setting")
		expName    = flag.String("exp", "all", "comma-separated experiments to run (all, table1..table5, fig1..fig8, ablations, extensions)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation heap profile to this file on exit")
		faultSeed  = flag.String("fault-seed", "", "arm deterministic fault injection with this seed (empty = off)")
		metricsOut = flag.String("metrics-out", "", "write the JSON metrics snapshot to this file on exit")
		verbose    = flag.Bool("v", false, "log progress")
	)
	flag.Parse()

	names := strings.Split(*expName, ",")
	if err := checkExp(names); err != nil {
		fmt.Fprintln(os.Stderr, "steerq-bench:", err)
		return 2
	}

	faultPlan, err := faults.ParsePlan(*faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steerq-bench:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steerq-bench: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "steerq-bench: -cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "steerq-bench: -cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "steerq-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so alloc_space is complete
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "steerq-bench: -memprofile:", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Candidates = *m
	cfg.Workers = *workers
	cfg.Faults = faultPlan
	if *verbose {
		cfg.Log = os.Stderr
	}
	r := experiments.NewRunner(cfg)
	out := os.Stdout

	for _, st := range plan(r, out) {
		if !slices.Contains(names, "all") && !slices.Contains(names, st.name) {
			continue
		}
		// steerq:allow-wallclock — -v progress timing goes to stderr only,
		// never into report output, so the determinism contract is unaffected.
		start := time.Now() // steerq:allow-wallclock — see above.
		if err := st.run(); err != nil {
			// Return rather than exit, so the deferred profile flushes run.
			fmt.Fprintf(os.Stderr, "steerq-bench: %s: %v\n", st.name, err)
			return 1
		}
		if *verbose {
			// steerq:allow-wallclock — same stderr-only progress line as above.
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", st.name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out)
	}

	// Surface compile-cache effectiveness for whatever ran above.
	for _, name := range []string{"A", "B", "C"} {
		st := r.CacheStats(name)
		if st.Hits+st.Misses == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "[compile cache %s: %d hits / %d misses (%.0f%% hit rate), %d entries]\n",
			name, st.Hits, st.Misses, 100*st.HitRate(), st.Entries)
	}
	// With fault injection armed, report how the run survived it.
	if r.Faults() != nil {
		for _, name := range []string{"A", "B", "C"} {
			rep := r.RobustnessFor(name)
			if rep.Analyses == 0 && rep.Record.IsZero() {
				continue
			}
			rep.Render(os.Stderr)
		}
	}
	if *metricsOut != "" {
		if err := r.Obs().Snapshot().WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "steerq-bench:", err)
			return 1
		}
	}
	return 0
}

// step is one -exp run: its name and what it prints.
type step struct {
	name string
	run  func() error
}

// plan lists every -exp run in the order an "all" run prints them. table5
// and fig8 share one learning run. checkExp reads only the names, so r and
// out may be nil there.
func plan(r *experiments.Runner, out io.Writer) []step {
	var learn *experiments.LearningRun
	learning := func() (*experiments.LearningRun, error) {
		if learn != nil {
			return learn, nil
		}
		var err error
		learn, err = r.Learning("B", 14, 3)
		return learn, err
	}
	fig6 := func(name string) func() error {
		return show(out, func() (*experiments.Figure6, error) { return r.Figure6(name, 0) })
	}
	return []step{
		{"table1", show(out, func() (*experiments.Table1, error) { return r.Table1(0) })},
		{"table2", show(out, func() (*experiments.Table2, error) { return r.Table2("A", 0) })},
		{"fig2", show(out, func() (*experiments.Figure2, error) { return r.Figure2("A", 0) })},
		{"fig3", show(out, func() (*experiments.Figure3, error) { return r.Figure3("A", 0, 150) })},
		{"fig4", show(out, func() (*experiments.Figure4, error) { return r.Figure4("A", 0, 15) })},
		{"fig5", show(out, func() (*experiments.Figure5, error) { return r.Figure5("A", 0) })},
		{"fig6", seq(out, "", fig6("A"), fig6("B"), fig6("C"))},
		{"table3", show(out, func() (*experiments.Table3, error) { return r.Table3(0) })},
		{"table4", show(out, func() (*experiments.Table4, error) { return r.Table4(0, 3) })},
		{"fig7", show(out, func() (*experiments.Figure7, error) { return r.Figure7("B", 2) })},
		{"fig1", seq(out, "",
			show(out, func() (*experiments.Figure1, error) { return r.Figure1("A", 7, 65) }),
			show(out, func() (*experiments.Loop, error) { return r.Loop("A", "B", "C") }))},
		{"ablations", seq(out, "\n",
			show(out, func() (*experiments.AblationRandomVsGuided, error) { return r.RandomVsGuided("A", 0, 12, 8) }),
			show(out, func() (*experiments.AblationSpanSearch, error) { return r.SpanSearch("A", 0, 25, 40) }),
			show(out, func() (*experiments.AblationGrouping, error) { return r.Grouping("B", 7) }))},
		{"extensions", show(out, func() (*experiments.ExtensionResults, error) { return r.Extensions("A", 0, 8) })},
		{"table5", show(out, func() (*experiments.Table5, error) {
			run, err := learning()
			return &experiments.Table5{Run: run}, err
		})},
		{"fig8", show(out, func() (*experiments.Figure8, error) {
			run, err := learning()
			return &experiments.Figure8{Run: run}, err
		})},
	}
}

// show is the step body of one experiment: run it, then render its result
// to out.
func show[T interface{ Render(io.Writer) }](out io.Writer, exp func() (T, error)) func() error {
	return func() error {
		v, err := exp()
		if err != nil {
			return err
		}
		v.Render(out)
		return nil
	}
}

// seq runs step bodies in order, writing sep to out between consecutive ones.
func seq(out io.Writer, sep string, bodies ...func() error) func() error {
	return func() error {
		for i, body := range bodies {
			if i > 0 {
				io.WriteString(out, sep)
			}
			if err := body(); err != nil {
				return err
			}
		}
		return nil
	}
}

// checkExp accepts -exp names that are "all" or a plan step; otherwise its
// error lists the valid names.
func checkExp(names []string) error {
	valid := []string{"all"}
	for _, st := range plan(nil, nil) {
		valid = append(valid, st.name)
	}
	for _, n := range names {
		if !slices.Contains(valid, n) {
			return fmt.Errorf("unknown -exp %q; valid names: %s", n, strings.Join(valid, ", "))
		}
	}
	return nil
}
