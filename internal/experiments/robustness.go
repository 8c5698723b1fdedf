package experiments

import (
	"fmt"
	"io"

	"steerq/internal/faults"
)

// RobustnessReport summarizes how a workload's pipeline run survived
// injected faults: what the injector threw at it (Stats) and what the
// retry/timeout/fallback machinery did about it (Record). With every number
// derived from content-keyed streams and serial merges, the report is
// byte-identical at any worker count for a given fault seed.
type RobustnessReport struct {
	Workload string
	// Plan is the injection configuration the run used.
	Plan faults.Plan
	// Stats counts the faults the shared injector actually injected. The
	// injector is shared across workloads, so these are run-wide totals.
	Stats faults.Stats
	// Record tallies the workload's fault handling: retries, timeouts,
	// corrupted compiles caught by validation, fallbacks to the default
	// configuration and given-up jobs.
	Record faults.Record
	// Analyses is how many job analyses completed for the workload.
	Analyses int
}

// RobustnessFor snapshots the robustness report of one workload. Meaningful
// after AnalyzedJobs (or any experiment built on it) has run; all zeros when
// fault injection is off.
func (r *Runner) RobustnessFor(name string) RobustnessReport {
	return RobustnessReport{
		Workload: name,
		Plan:     r.Faults().Plan(),
		Stats:    r.Faults().Stats(),
		Record:   *r.Robustness(name),
		Analyses: len(r.analyses[name]),
	}
}

// Render prints the report.
func (rep RobustnessReport) Render(w io.Writer) {
	fmt.Fprintf(w, "Robustness (workload %s, fault seed %d)\n", rep.Workload, rep.Plan.Seed)
	fmt.Fprintf(w, "  injected: %d of %d decisions (fail=%d hang=%d corrupt=%d)\n",
		rep.Stats.Injected(), rep.Stats.Decisions, rep.Stats.Fails, rep.Stats.Hangs, rep.Stats.Corrupts)
	fmt.Fprintf(w, "  analyses: %d completed, %d given up\n", rep.Analyses, rep.Record.GiveUps)
	fmt.Fprintf(w, "  retries:  %d compile + %d exec\n", rep.Record.CompileRetries, rep.Record.ExecRetries)
	fmt.Fprintf(w, "  caught:   %d timeouts, %d corrupted plans\n", rep.Record.Timeouts, rep.Record.Corruptions)
	fmt.Fprintf(w, "  fallbacks to default config: %d\n", rep.Record.Fallbacks)
}
