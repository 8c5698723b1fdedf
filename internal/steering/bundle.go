package steering

import (
	"context"
	"errors"
	"fmt"

	"steerq/internal/bundle"
	"steerq/internal/workload"
)

// BundleReport summarizes one offline bundle build: how the workload's job
// groups resolved into bundle entries.
type BundleReport struct {
	// Jobs is the number of jobs grouped.
	Jobs int
	// Groups is the number of rule-signature job groups (== bundle entries).
	Groups int
	// Steered counts groups whose analysis found an improving configuration.
	Steered int
	// Fallbacks counts groups deliberately pinned to the default
	// configuration (analyzed, no improvement found).
	Fallbacks int
	// Failed counts groups whose representative analysis failed (only
	// possible under fault injection); they are recorded as fallback
	// entries so serving stays safe.
	Failed int
}

// BuildBundle runs the offline "bundle build" step: group the jobs by
// default rule signature (Definition 6.2), analyze one representative per
// group through the full discovery pipeline, and serialize the per-group
// best-configuration decisions into a versioned bundle for the serving
// tier. See BuildBundleCtx.
func (p *Pipeline) BuildBundle(jobs []*workload.Job, version uint64, createdUnix int64) (*bundle.Bundle, BundleReport, error) {
	return p.BuildBundleCtx(context.Background(), jobs, version, createdUnix)
}

// BuildBundleCtx is BuildBundle bounded by a context.
//
// Every group gets exactly one entry: the span-minimized best alternative
// when the analysis found a runtime improvement (see MinimalConfig), and an
// explicit fallback entry pinning the default configuration otherwise —
// including when the representative's analysis failed under fault
// injection, because a bundle must never steer a group on no evidence.
//
// The group representatives are analyzed concurrently (see AnalyzeEachCtx).
// Entries and errors are slotted by group index, the report is tallied from
// them in group order afterwards, and the bundle encoding is canonical, so
// the artifact is byte-identical at any Workers count (the determinism
// battery asserts this). A canceled ctx stops unstarted groups and yields
// the lowest failing group's error, never a partial bundle.
func (p *Pipeline) BuildBundleCtx(ctx context.Context, jobs []*workload.Job, version uint64, createdUnix int64) (*bundle.Bundle, BundleReport, error) {
	rep := BundleReport{Jobs: len(jobs)}
	groups, err := p.Grouper().Group(jobs)
	if err != nil {
		return nil, rep, fmt.Errorf("steering: bundle build: %w", err)
	}
	rep.Groups = len(groups)
	rs := p.Harness.Opt.Rules
	b := &bundle.Bundle{Version: version, CreatedUnix: createdUnix, Default: rs.DefaultConfig()}
	if len(jobs) > 0 {
		b.Workload = jobs[0].Workload
	}
	// Each worker reduces its group's analysis to the entry on the spot, so
	// at most Workers analyses are alive at once.
	b.Entries = make([]bundle.Entry, len(groups))
	errs := make([]error, len(groups))
	reps := make([]*workload.Job, len(groups))
	for gi, grp := range groups {
		reps[gi] = grp.Jobs[0]
		b.Entries[gi] = bundle.Entry{Signature: grp.Signature, Config: rs.DefaultConfig(), Fallback: true}
	}
	err = p.AnalyzeEachCtx(ctx, reps, func(gi int, a *Analysis, aerr error) {
		if errs[gi] = aerr; aerr != nil {
			return
		}
		if cfg, ok := MinimalConfig(a, rs); ok {
			b.Entries[gi].Config, b.Entries[gi].Fallback = cfg, false
		}
	})
	if err != nil && ctx.Err() != nil {
		// Canceled: err is the lowest failing group's — a skipped group's
		// ctx.Err() or an in-flight analysis's, which may have seen the
		// cancellation as an attempt timeout; say what it was either way.
		if !errors.Is(err, ctx.Err()) {
			err = fmt.Errorf("%w: %w", ctx.Err(), err)
		}
		return nil, rep, fmt.Errorf("steering: bundle build: %w", err)
	}
	for gi, e := range b.Entries {
		switch {
		case errs[gi] != nil:
			rep.Failed++
		case e.Fallback:
			rep.Fallbacks++
		default:
			rep.Steered++
		}
	}
	// Encode once to stamp the content checksum, so consumers that load the
	// in-memory bundle directly (tests, the CLI printing the hash) see the
	// same identity a file round trip would.
	if _, err := b.Encode(); err != nil {
		return nil, rep, fmt.Errorf("steering: bundle build: %w", err)
	}
	return b, rep, nil
}
