// Scheduler: the execution engine behind ForEach/Map and the direct Run API.
//
// The index set is a flat range, so scheduling is one shared cursor: a free
// worker takes the next index. That keeps every core busy when items are as
// uneven as whole job-group analyses — a worker stuck in a long item simply
// stops taking indices while the others drain the range. Which worker runs
// an index moves scheduling decisions, never results — results stay slotted
// by input index and errors still resolve to the lowest failing index, so the
// determinism contract in the package comment is untouched at any worker
// count.
//
// Observability is the one place scheduling could leak: which worker ran an
// item is genuinely schedule-dependent. Under the deterministic virtual
// clock (STEERQ_VCLOCK, the same switch that freezes span durations)
// SchedObs therefore publishes the canonical serial schedule — every item
// attributed to worker 0 — keeping frozen-clock metric snapshots
// byte-identical at any worker count, exactly as durations are canonicalized
// to zero. Wall-clock runs publish the actuals.

package par

import (
	"context"
	"os"
	"sync"
	"sync/atomic"

	"steerq/internal/obs"
)

// Stats reports one Run's scheduling activity. The per-worker execution
// split depends on timing (it describes which worker got to an item first)
// and is therefore diagnostic: no determinism guarantee covers it, unlike
// every value Run's callback computes.
type Stats struct {
	// Workers is the resolved worker count of the run.
	Workers int
	// Items is the number of scheduled items.
	Items int
	// Executed[w] counts the items worker w ran, summing to Items.
	Executed []uint64
}

// Add accumulates o into s for aggregation across runs; the worker count
// and per-worker tallies widen to the larger run.
func (s *Stats) Add(o Stats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Items += o.Items
	if len(o.Executed) > len(s.Executed) {
		grown := make([]uint64, len(o.Executed))
		copy(grown, s.Executed)
		s.Executed = grown
	}
	for w, n := range o.Executed {
		s.Executed[w] += n
	}
}

// Run executes f(worker, i) for every i in [0, n) on at most
// Workers(workers) goroutines, each taking the next unstarted index when it
// is free, and waits for all of them. The worker argument is a stable
// identity in [0, workers): at most one item runs under a given worker at a
// time, so callers may key worker-local state (compile arenas) by it without
// locking.
//
// Every index runs regardless of other indices' failures and the returned
// error is the one from the lowest failing index, exactly as in ForEach.
// Once ctx is done no further indices start: each unstarted index records
// ctx.Err() as its error instead of running, while indices already in flight
// run to completion (they see the cancellation through the ctx their
// callback closes over), so the pool never abandons a goroutine mid-item.
// With a live context the results are bit-for-bit identical at any worker
// count; after a cancellation the set of indices that ran depends on timing,
// but the returned error is still the lowest-index failure, and a context
// canceled before the call starts skips every index deterministically.
//
// so, when non-nil, receives the run's scheduler telemetry (per-worker
// executed items, live queue depth). The returned Stats describe scheduling
// only; see its comment.
func Run(ctx context.Context, workers, n int, so *SchedObs, f func(worker, i int) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	st := Stats{Workers: w, Items: n, Executed: make([]uint64, w)}
	so.enqueue(n)

	var next atomic.Int64 // the cursor: the lowest index no worker has taken
	var mu sync.Mutex
	firstIdx := -1
	var firstErr error
	drain := func(self int) {
		var executed uint64
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				st.Executed[self] = executed
				return
			}
			executed++
			so.dequeue()
			err := ctx.Err()
			if err == nil {
				err = f(self, i)
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
		drain(0)
	} else {
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				drain(self)
			}(g)
		}
		wg.Wait()
	}
	so.publish(st)
	return st, firstErr
}

// Scheduler metric names.
const (
	schedItemsMetric = "steerq_par_items_total"
	schedDepthMetric = "steerq_par_queue_depth"
)

// maxWorkerLabel bounds the per-worker label cardinality: workers beyond the
// table share the overflow label, exactly the bounded-enum discipline the
// obslabels analyzer enforces.
const maxWorkerLabel = 16

// workerLabels are the precomputed bounded label values for the per-worker
// items counter.
var workerLabels = [maxWorkerLabel + 1]string{
	"0", "1", "2", "3", "4", "5", "6", "7",
	"8", "9", "10", "11", "12", "13", "14", "15", "16+",
}

// SchedObs publishes scheduler telemetry into an obs.Registry: per-worker
// executed-item counters and a live queue-depth gauge (items not yet started
// — nonzero only while a Run is in flight, which makes it a debug-endpoint
// signal and a deterministic zero in snapshots taken between runs).
//
// Which worker ran an item is the only schedule-dependent quantity in this
// package; under STEERQ_VCLOCK it is canonicalized to the serial schedule
// (all items on worker "0") so frozen-clock snapshot goldens stay
// byte-identical at any worker count. The Stats returned by Run always
// carry the actuals.
type SchedObs struct {
	reg    *obs.Registry
	labels []string
	queued atomic.Int64

	mu      sync.Mutex
	workers map[int]*obs.Counter
}

// NewSchedObs resolves the scheduler instruments against reg with the given
// label pairs. A nil registry returns a nil SchedObs, which records nothing.
func NewSchedObs(reg *obs.Registry, labels ...string) *SchedObs {
	if reg == nil {
		return nil
	}
	s := &SchedObs{
		reg:     reg,
		labels:  labels,
		workers: make(map[int]*obs.Counter),
	}
	reg.GaugeFunc(schedDepthMetric, func() float64 {
		return float64(s.queued.Load())
	}, labels...)
	// Resolve worker 0 eagerly so even an all-canonical snapshot carries the
	// per-worker family.
	s.workerCounter(0)
	return s
}

// workerCounter returns (resolving once) the executed-items counter for one
// worker slot, clamped into the bounded label table.
func (s *SchedObs) workerCounter(w int) *obs.Counter {
	if w > maxWorkerLabel {
		w = maxWorkerLabel
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.workers[w]; ok {
		return c
	}
	ls := make([]string, 0, len(s.labels)+2)
	ls = append(ls, s.labels...)
	worker := workerLabels[w]
	ls = append(ls, "worker", worker)
	c := s.reg.Counter(schedItemsMetric, ls...)
	s.workers[w] = c
	return c
}

// enqueue/dequeue maintain the live queue-depth gauge. Nil-safe.
func (s *SchedObs) enqueue(n int) {
	if s != nil {
		s.queued.Add(int64(n))
	}
}

func (s *SchedObs) dequeue() {
	if s != nil {
		s.queued.Add(-1)
	}
}

// publish records one run's stats, canonicalized to the serial schedule
// under the deterministic virtual clock (see the type comment). Nil-safe.
func (s *SchedObs) publish(st Stats) {
	if s == nil {
		return
	}
	if os.Getenv(obs.VClockEnv) != "" {
		s.workerCounter(0).Add(uint64(st.Items))
		return
	}
	for w, n := range st.Executed {
		if n > 0 {
			s.workerCounter(w).Add(n)
		}
	}
}
