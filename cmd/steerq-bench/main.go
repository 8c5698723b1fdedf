// Command steerq-bench regenerates every table and figure of the paper on
// the simulated stack and prints them in order. Use -exp to run a single
// experiment and -workers to fan analysis out across goroutines (results are
// identical at any worker count). Performance is measured by benchmark/ (see
// README "Benchmark"), not here; -cpuprofile/-memprofile profile a run.
//
// Usage:
//
//	steerq-bench [-scale 0.01] [-seed 2021] [-m 300] [-workers N] [-exp all|table1..table5|fig1..fig8|ablations|extensions] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
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
		expName    = flag.String("exp", "all", "experiment to run (all, table1..table5, fig1..fig8)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation heap profile to this file on exit")
		faultSeed  = flag.String("fault-seed", "", "arm deterministic fault injection with this seed (empty = off)")
		faultRates = flag.String("fault-rates", "", "fault probabilities as site.kind=prob pairs, e.g. compile.fail=0.1,exec.hang=0.05")
		metricsOut = flag.String("metrics-out", "", "write a metrics snapshot on exit (.prom/.txt = text exposition, else JSON)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars and /metrics on this address while the run is live")
		verbose    = flag.Bool("v", false, "log progress")
	)
	flag.Parse()

	faultPlan, err := faults.ParsePlan(*faultSeed, *faultRates)
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

	if *debugAddr != "" {
		srv, err := r.Obs().ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steerq-bench:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "steerq-bench: debug endpoint on http://%s (/debug/vars, /metrics)\n", srv.Addr())
	}

	names := strings.Split(*expName, ",")
	want := func(n string) bool {
		for _, x := range names {
			if x == "all" || x == n {
				return true
			}
		}
		return false
	}

	run := func(name string, f func() error) {
		if !want(name) {
			return
		}
		// steerq:allow-wallclock — -v progress timing goes to stderr only,
		// never into report output, so the determinism contract is unaffected.
		start := time.Now() // steerq:allow-wallclock — see above.
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "steerq-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *verbose {
			// steerq:allow-wallclock — same stderr-only progress line as above.
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out)
	}

	run("table1", func() error { return render1(r, out) })
	run("table2", func() error { return render2(r, out) })
	run("fig2", func() error { return renderF2(r, out) })
	run("fig3", func() error { return renderF3(r, out) })
	run("fig4", func() error { return renderF4(r, out) })
	run("fig5", func() error { return renderF5(r, out) })
	run("fig6", func() error { return renderF6(r, out) })
	run("table3", func() error { return render3(r, out) })
	run("table4", func() error { return render4(r, out) })
	run("fig7", func() error { return renderF7(r, out) })
	run("fig1", func() error { return renderF1(r, out) })
	run("ablations", func() error { return renderAblations(r, out) })
	run("extensions", func() error { return renderExtensions(r, out) })
	var learn *experiments.LearningRun
	run("table5", func() error {
		var err error
		learn, err = r.Learning("B", 14, 3)
		if err != nil {
			return err
		}
		(&experiments.Table5{Run: learn}).Render(out)
		return nil
	})
	run("fig8", func() error {
		if learn == nil {
			var err error
			learn, err = r.Learning("B", 14, 3)
			if err != nil {
				return err
			}
		}
		(&experiments.Figure8{Run: learn}).Render(out)
		return nil
	})

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
	// Observability rollup for everything that ran above: per-stage spans,
	// compile/exec counters, memo-size histograms.
	snap := r.Obs().Snapshot()
	if err := snap.Report(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "steerq-bench:", err)
		return 1
	}
	if *metricsOut != "" {
		if err := snap.WriteFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "steerq-bench:", err)
			return 1
		}
	}
	return 0
}

func render1(r *experiments.Runner, w io.Writer) error {
	t, err := r.Table1(0)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}

func render2(r *experiments.Runner, w io.Writer) error {
	t, err := r.Table2("A", 0)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}

func render3(r *experiments.Runner, w io.Writer) error {
	t, err := r.Table3(0)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}

func render4(r *experiments.Runner, w io.Writer) error {
	t, err := r.Table4(0, 3)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}

func renderF1(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure1("A", 7, 65)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderF2(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure2("A", 0)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderF3(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure3("A", 0, 150)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderF4(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure4("A", 0, 15)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderF5(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure5("A", 0)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderF6(r *experiments.Runner, w io.Writer) error {
	for _, name := range []string{"A", "B", "C"} {
		f, err := r.Figure6(name, 0)
		if err != nil {
			return err
		}
		f.Render(w)
	}
	return nil
}

func renderF7(r *experiments.Runner, w io.Writer) error {
	f, err := r.Figure7("B", 2)
	if err != nil {
		return err
	}
	f.Render(w)
	return nil
}

func renderAblations(r *experiments.Runner, w io.Writer) error {
	rvg, err := r.RandomVsGuided("A", 0, 12, 8)
	if err != nil {
		return err
	}
	rvg.Render(w)
	fmt.Fprintln(w)
	ss, err := r.SpanSearch("A", 0, 25, 40)
	if err != nil {
		return err
	}
	ss.Render(w)
	fmt.Fprintln(w)
	gr, err := r.Grouping("B", 7)
	if err != nil {
		return err
	}
	gr.Render(w)
	return nil
}

func renderExtensions(r *experiments.Runner, w io.Writer) error {
	e, err := r.Extensions("A", 0, 8)
	if err != nil {
		return err
	}
	e.Render(w)
	return nil
}
