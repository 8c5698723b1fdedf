// Work-stealing scheduler: the execution engine behind ForEach/Map and the
// direct Run API.
//
// The scheduler deals the index set round-robin into per-worker bounded
// deques up front and lets idle workers steal: a worker drains its own deque
// from the head and, once empty, takes the lowest-index item exposed at any
// victim's steal end — which is what keeps every core busy when items are as
// uneven as whole job-group analyses. Stealing moves scheduling decisions,
// never results — results stay slotted by input index and errors still
// resolve to the lowest failing index, so the determinism contract in the
// package comment is untouched at any worker count.
//
// Observability is the one place scheduling could leak: which worker ran an
// item and how often deques ran dry are genuinely schedule-dependent. Under
// the deterministic virtual clock (STEERQ_VCLOCK, the same switch that
// freezes span durations) SchedObs therefore publishes the canonical serial
// schedule — every item attributed to worker 0, zero steals — keeping
// frozen-clock metric snapshots byte-identical at any worker count, exactly
// as durations are canonicalized to zero. Wall-clock runs publish the
// actuals.

package par

import (
	"context"
	"os"
	"sync"
	"sync/atomic"

	"steerq/internal/obs"
)

// Stats reports one Run's scheduling activity. Steals and the per-worker
// execution split depend on timing (they describe which worker got to an
// item first) and are therefore diagnostic: no determinism guarantee covers
// them, unlike every value Run's callback computes.
type Stats struct {
	// Workers is the resolved worker count of the run.
	Workers int
	// Items is the number of scheduled items.
	Items int
	// Steals counts items a worker took from another worker's deque.
	Steals uint64
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
	s.Steals += o.Steals
	if len(o.Executed) > len(s.Executed) {
		grown := make([]uint64, len(o.Executed))
		copy(grown, s.Executed)
		s.Executed = grown
	}
	for w, n := range o.Executed {
		s.Executed[w] += n
	}
}

// deque is one worker's bounded queue of item indices in ascending order.
// The owner pops from the head; thieves take from the tail (minimizing
// interference with the owner). The backing slice is sized exactly to the
// dealt share and never grows.
type deque struct {
	mu    sync.Mutex
	items []int
	head  int
	tail  int // one past the last queued item
}

// pop removes the head item. ok is false when the deque is empty.
func (d *deque) pop() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	i := d.items[d.head]
	d.head++
	d.mu.Unlock()
	return i, true
}

// peekTail reports the item a thief would steal, without taking it.
func (d *deque) peekTail() (int, bool) {
	d.mu.Lock()
	if d.head >= d.tail {
		d.mu.Unlock()
		return 0, false
	}
	i := d.items[d.tail-1]
	d.mu.Unlock()
	return i, true
}

// stealTail takes the tail item iff it is still the expected one; a false
// return means the deque changed since the peek and the thief must rescan.
func (d *deque) stealTail(expect int) bool {
	d.mu.Lock()
	if d.head >= d.tail || d.items[d.tail-1] != expect {
		d.mu.Unlock()
		return false
	}
	d.tail--
	d.mu.Unlock()
	return true
}

// Run executes f(worker, i) for every i in [0, n) on at most
// Workers(workers) goroutines, scheduled by work stealing, and waits for all
// of them. The worker argument is a stable identity in [0, workers): at most
// one item runs under a given worker at a time, so callers may key
// worker-local state (compile arenas) by it without locking.
//
// Every index runs regardless of other indices' failures and the returned
// error is the one from the lowest failing index, exactly as in ForEach.
// Once ctx is done no further indices start: each unstarted index records
// ctx.Err() as its error instead of running, while indices already in flight
// run to completion (see ForEachCtx for the contract). so, when non-nil,
// receives the run's scheduler telemetry (steal count, per-worker executed
// items, live queue depth). The returned Stats describe scheduling only; see
// its comment.
func Run(ctx context.Context, workers, n int, so *SchedObs, f func(worker, i int) error) (Stats, error) {
	if n <= 0 {
		return Stats{}, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	st := Stats{Workers: w, Items: n, Executed: make([]uint64, w)}
	item := func(worker, i int) error {
		so.dequeue()
		if err := ctx.Err(); err != nil {
			return err
		}
		return f(worker, i)
	}
	so.enqueue(n)
	if w == 1 {
		// Serial fast path: ascending order, so the first error is the
		// lowest-index one.
		var firstErr error
		for i := 0; i < n; i++ {
			if err := item(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		st.Executed[0] = uint64(n)
		so.publish(st)
		return st, firstErr
	}

	// Deal the indices round-robin: worker g owns g, g+w, g+2w, ...
	deques := make([]*deque, w)
	backing := make([]int, n)
	for g := 0; g < w; g++ {
		share := (n - g + w - 1) / w
		items := backing[:share:share]
		backing = backing[share:]
		for k := 0; k < share; k++ {
			items[k] = g + k*w
		}
		deques[g] = &deque{items: items, tail: share}
	}

	var steals atomic.Uint64
	var mu sync.Mutex
	firstIdx := -1
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			var executed uint64
			for {
				i, ok := deques[self].pop()
				if !ok {
					i, ok = stealLowest(deques, self)
					if !ok {
						break
					}
					steals.Add(1)
				}
				executed++
				if err := item(self, i); err != nil {
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
			st.Executed[self] = executed
		}(g)
	}
	wg.Wait()
	st.Steals = steals.Load()
	so.publish(st)
	return st, firstErr
}

// stealLowest takes one item for a worker whose own deque ran dry: it scans
// every victim's steal end and steals the lowest item index exposed there,
// so the steal policy is a function of the queue state, not of victim-scan
// luck. ok is false once every deque is empty (items still executing on
// other workers are no longer stealable).
func stealLowest(deques []*deque, self int) (int, bool) {
	for {
		best, victim := -1, -1
		for v := range deques {
			if v == self {
				continue
			}
			if i, ok := deques[v].peekTail(); ok && (victim == -1 || i < best) {
				best, victim = i, v
			}
		}
		if victim == -1 {
			return 0, false
		}
		if deques[victim].stealTail(best) {
			return best, true
		}
		// Lost the race to the owner or another thief; rescan.
	}
}

// Scheduler metric names.
const (
	schedStealsMetric = "steerq_par_steals_total"
	schedItemsMetric  = "steerq_par_items_total"
	schedDepthMetric  = "steerq_par_queue_depth"
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

// SchedObs publishes scheduler telemetry into an obs.Registry: a steal
// counter, per-worker executed-item counters and a live queue-depth gauge
// (items dealt but not yet started — nonzero only while a Run is in flight,
// which makes it a debug-endpoint signal and a deterministic zero in
// snapshots taken between runs).
//
// Which worker ran an item, and how many steals that took, are the only
// schedule-dependent quantities in this package; under STEERQ_VCLOCK they
// are canonicalized to the serial schedule (all items on worker "0", zero
// steals) so frozen-clock snapshot goldens stay byte-identical at any
// worker count. The Stats returned by Run always carry the actuals.
type SchedObs struct {
	reg    *obs.Registry
	labels []string
	steals *obs.Counter
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
		steals:  reg.Counter(schedStealsMetric, labels...),
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
	s.steals.Add(st.Steals)
	for w, n := range st.Executed {
		if n > 0 {
			s.workerCounter(w).Add(n)
		}
	}
}
