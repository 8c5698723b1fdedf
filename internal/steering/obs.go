package steering

import (
	"steerq/internal/faults"
	"steerq/internal/obs"
)

// trialOutcome classifies one executed alternative for the
// steerq_pipeline_trials_total counter.
func trialOutcome(err error, fellBack bool) string {
	switch {
	case fellBack:
		return "fallback"
	case err != nil:
		return obs.OutcomeError
	default:
		return obs.OutcomeOK
	}
}

// mirrorRobustness adds one analysis stage's fault-handling delta to the
// registry's robustness counters. Deltas are computed from serially merged
// faults.Record values and added serially by the pipeline, so the counters
// match the records bit-for-bit at any worker count.
func mirrorRobustness(reg *obs.Registry, d faults.Record) {
	if reg == nil || d.IsZero() {
		return
	}
	retries := func(kind string, n int) {
		if n > 0 {
			reg.Counter("steerq_robustness_retries_total", "kind", kind).Add(uint64(n))
		}
	}
	events := func(kind string, n int) {
		if n > 0 {
			reg.Counter("steerq_robustness_events_total", "kind", kind).Add(uint64(n))
		}
	}
	retries("compile", d.CompileRetries)
	retries("exec", d.ExecRetries)
	events("timeout", d.Timeouts)
	events("corruption", d.Corruptions)
	events("fallback", d.Fallbacks)
	events("giveup", d.GiveUps)
}

// recordDelta returns after minus before, field by field.
func recordDelta(after, before faults.Record) faults.Record {
	return faults.Record{
		CompileRetries: after.CompileRetries - before.CompileRetries,
		ExecRetries:    after.ExecRetries - before.ExecRetries,
		Timeouts:       after.Timeouts - before.Timeouts,
		Corruptions:    after.Corruptions - before.Corruptions,
		Fallbacks:      after.Fallbacks - before.Fallbacks,
		GiveUps:        after.GiveUps - before.GiveUps,
	}
}
