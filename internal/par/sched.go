// Scheduler: Run, the execution engine behind Map and the API for callers
// with a context.
//
// The index set is a flat range, so scheduling is one shared cursor: a free
// worker takes the next index. That keeps every core busy when items are as
// uneven as whole job-group analyses — a worker stuck in a long item simply
// stops taking indices while the others drain the range. Which worker runs
// an index moves scheduling decisions, never results — results stay slotted
// by input index and errors still resolve to the lowest failing index, so the
// determinism contract in the package comment is untouched at any worker
// count.

package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run executes f(i) for every i in [0, n) on at most
// min(Workers(workers), n) goroutines, each taking the next unstarted index
// when it is free, and waits for all of them.
//
// Every index runs regardless of other indices' failures (pipeline call sites
// treat per-item failure as data, not as a reason to stop), and the returned
// error is the one from the lowest failing index, so the error too is
// independent of scheduling.
// Once ctx is done no further indices start: each unstarted index records
// ctx.Err() as its error instead of running, while indices already in flight
// run to completion (they see the cancellation through the ctx their
// callback closes over), so the pool never abandons a goroutine mid-item.
// With a live context the results are bit-for-bit identical at any worker
// count; after a cancellation the set of indices that ran depends on timing,
// but the returned error is still the lowest-index failure, and a context
// canceled before the call starts skips every index deterministically.
func Run(ctx context.Context, workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(Workers(workers), n)

	var next atomic.Int64 // the cursor: the lowest index no worker has taken
	var mu sync.Mutex
	firstIdx := -1
	var firstErr error
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			err := ctx.Err()
			if err == nil {
				err = f(i)
			}
			if err != nil {
				mu.Lock()
				if firstIdx == -1 || i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	if w == 1 {
		// Serial fast path: the caller's goroutine walks the range in
		// ascending order.
		drain()
	} else {
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		wg.Wait()
	}
	return firstErr
}
