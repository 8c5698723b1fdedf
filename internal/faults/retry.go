package faults

import "context"

// maxAttempts is the retry budget of an operation under active injection,
// first attempt included. Four attempts push the persistent-failure
// probability of a site with fault rate p to p^4 (~1e-5 at p=0.06). Without
// injection nothing transient is thrown, so an operation gets one attempt.
const maxAttempts = 4

// Retry runs op with the fixed retry budget: attempts are numbered from 0
// and re-run while the error is Retryable and the budget lasts — four
// attempts when injection is active, one when it is not (a nil injector
// included). rec, when non-nil, observes retries, timeouts and corruptions
// at the given site. The parent ctx bounds the whole loop: an injected hang
// waits for its deadline if it has one and is an immediate watchdog kill
// otherwise (see Hang), so a hang burns one attempt, not the whole budget.
//
// Returns the attempt count actually used and the final error (nil on
// success). A non-retryable error — a genuine compile failure, a parent
// cancellation — stops the loop immediately, and so does a spent parent
// context.
func (in *Injector) Retry(ctx context.Context, site Site, rec *Record, op func(attempt int) error) (int, error) {
	budget := 1
	if in.Active() {
		budget = maxAttempts
	}
	var err error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			rec.observeRetry(site)
		}
		err = op(attempt)
		if err == nil {
			return attempt + 1, nil
		}
		rec.observeError(err)
		if !Retryable(err) {
			return attempt + 1, err
		}
		if ctx.Err() != nil {
			// The parent deadline or cancelation is spent: further attempts
			// would all time out instantly. Surface the attempt error.
			return attempt + 1, err
		}
	}
	return budget, err
}

// Record accumulates the robustness events of one pipeline unit (one job
// analysis, one trial, one experiment run). Plain ints: records are filled
// per item and merged serially in input-index order, which is what keeps
// the counts — like every other pipeline output — identical at any worker
// count.
type Record struct {
	// CompileRetries and ExecRetries count re-attempts beyond the first,
	// per site.
	CompileRetries int
	ExecRetries    int
	// Timeouts counts attempts that ended at a deadline (injected hang or
	// genuine overrun).
	Timeouts int
	// Corruptions counts attempts whose result failed validation.
	Corruptions int
	// Fallbacks counts steered executions abandoned for the default
	// configuration after exhausting their retry budget.
	Fallbacks int
	// GiveUps counts candidate compiles dropped after exhausting their
	// retry budget.
	GiveUps int
}

// Add merges o into r.
func (r *Record) Add(o Record) {
	r.CompileRetries += o.CompileRetries
	r.ExecRetries += o.ExecRetries
	r.Timeouts += o.Timeouts
	r.Corruptions += o.Corruptions
	r.Fallbacks += o.Fallbacks
	r.GiveUps += o.GiveUps
}

// Retries returns total re-attempts across both sites.
func (r Record) Retries() int { return r.CompileRetries + r.ExecRetries }

// IsZero reports whether nothing was recorded.
func (r Record) IsZero() bool { return r == Record{} }

func (r *Record) observeRetry(site Site) {
	if r == nil {
		return
	}
	if site == SiteExec {
		r.ExecRetries++
	} else {
		r.CompileRetries++
	}
}

func (r *Record) observeError(err error) {
	if r == nil {
		return
	}
	switch {
	case isTimeout(err):
		r.Timeouts++
	case isCorrupt(err):
		r.Corruptions++
	}
}
