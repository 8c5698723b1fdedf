package par_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"steerq/internal/obs"
	"steerq/internal/par"
)

func TestRunZeroItems(t *testing.T) {
	for _, n := range []int{0, -3} {
		st, err := par.Run(context.Background(), 8, n, nil, func(worker, i int) error {
			t.Fatalf("callback ran for n=%d (worker=%d i=%d)", n, worker, i)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: err = %v", n, err)
		}
		if st.Items != 0 || len(st.Executed) != 0 {
			t.Fatalf("n=%d: stats = %+v, want zero value", n, st)
		}
	}
}

func TestRunWorkersExceedItems(t *testing.T) {
	// 64 workers over 3 items must clamp to 3 workers, run every index exactly
	// once, and attribute exactly 3 executions across the per-worker tallies.
	var ran [3]atomic.Int32
	st, err := par.Run(context.Background(), 64, 3, nil, func(worker, i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if st.Workers != 3 || len(st.Executed) != 3 {
		t.Fatalf("workers = %d (executed %d slots), want clamp to 3", st.Workers, len(st.Executed))
	}
	var total uint64
	for _, n := range st.Executed {
		total += n
	}
	if total != 3 || st.Items != 3 {
		t.Fatalf("executed %d items across workers, items=%d, want 3", total, st.Items)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestRunAllErrorLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := par.Run(context.Background(), workers, 41, nil, func(_, i int) error {
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 0 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest failing index", workers, err)
		}
	}
}

// TestRunWorkerIdentityIsExclusive verifies the worker-local-state contract:
// at most one item runs under a given worker identity at a time, so
// unsynchronized per-worker slots must never race (the -race runs of this
// test would catch a violation) nor observe interleaved writes.
func TestRunWorkerIdentityIsExclusive(t *testing.T) {
	const workers, n = 4, 256
	depth := make([]atomic.Int32, workers)
	counts := make([]int, workers) // unsynchronized on purpose: exclusivity is the lock
	_, err := par.Run(context.Background(), workers, n, nil, func(worker, i int) error {
		if d := depth[worker].Add(1); d != 1 {
			return fmt.Errorf("worker %d reentered (depth %d)", worker, d)
		}
		counts[worker]++
		depth[worker].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

// TestRunParkedWorkerStrandsNoIndex parks the worker that took index 0 inside
// that item until every other index has completed: the free workers must take
// all of them, so no index waits on a worker that is busy. A static split of
// the range across workers fails this — the parked worker's share never runs.
func TestRunParkedWorkerStrandsNoIndex(t *testing.T) {
	const workers, n = 4, 64
	othersDone := make(chan struct{})
	var others atomic.Int32
	var ran [n]atomic.Int32
	done := make(chan error, 1)
	go func() {
		_, err := par.Run(context.Background(), workers, n, nil, func(_, i int) error {
			ran[i].Add(1)
			if i == 0 {
				<-othersDone
			} else if others.Add(1) == n-1 {
				close(othersDone)
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run hung with %d of %d other indices complete: indices stranded behind the parked worker", others.Load(), n-1)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// TestRunCancelMidSteal cancels the context from an item while other workers
// are taking indices; unstarted indices must record ctx.Err(), the
// lowest-index failure must win, and the run must terminate.
func TestRunCancelMidSteal(t *testing.T) {
	const n = 200
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	_, err := par.Run(ctx, 8, n, nil, func(_, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from a skipped index", err)
	}
	if got := ran.Load(); got == 0 || got > n {
		t.Fatalf("%d items ran", got)
	}
}

func TestStatsAdd(t *testing.T) {
	var s par.Stats
	s.Add(par.Stats{Workers: 2, Items: 10, Executed: []uint64{6, 4}})
	s.Add(par.Stats{Workers: 4, Items: 8, Executed: []uint64{2, 2, 2, 2}})
	want := par.Stats{Workers: 4, Items: 18, Executed: []uint64{8, 6, 2, 2}}
	if s.Workers != want.Workers || s.Items != want.Items {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
	for w := range want.Executed {
		if s.Executed[w] != want.Executed[w] {
			t.Fatalf("executed = %v, want %v", s.Executed, want.Executed)
		}
	}
}

// TestSchedObsCanonicalUnderVClock: with the deterministic clock set, the
// published schedule is the canonical serial one — all items on worker "0"
// — no matter how many workers actually ran, so frozen-clock metric snapshots
// cannot depend on scheduling.
func TestSchedObsCanonicalUnderVClock(t *testing.T) {
	t.Setenv(obs.VClockEnv, "1")
	reg := obs.NewWithClock(obs.FrozenClock())
	so := par.NewSchedObs(reg, "pool", "test")
	for _, workers := range []int{1, 8} {
		if _, err := par.Run(context.Background(), workers, 50, so, func(_, i int) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	var items uint64
	workerSeen := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name != "steerq_par_items_total" {
			continue
		}
		items += c.Value
		for _, l := range c.Labels {
			if l.Key == "worker" {
				workerSeen[l.Value] = true
			}
		}
	}
	if items != 100 {
		t.Fatalf("canonical items = %v, want 100", items)
	}
	if len(workerSeen) != 1 || !workerSeen["0"] {
		t.Fatalf("worker labels = %v, want only \"0\" under %s", workerSeen, obs.VClockEnv)
	}
	for _, g := range snap.Gauges {
		if g.Name == "steerq_par_queue_depth" && g.Value != 0 {
			t.Fatalf("queue depth = %v between runs, want 0", g.Value)
		}
	}
}

// TestSchedObsActualsWithoutVClock: on the wall clock the per-worker split
// is published as measured (summing to the item count).
func TestSchedObsActualsWithoutVClock(t *testing.T) {
	t.Setenv(obs.VClockEnv, "")
	reg := obs.NewWithClock(obs.FrozenClock())
	so := par.NewSchedObs(reg, "pool", "test")
	st, err := par.Run(context.Background(), 4, 40, so, func(_, i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var items uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "steerq_par_items_total" {
			items += c.Value
		}
	}
	if items != uint64(st.Items) {
		t.Fatalf("published items = %v, want %d", items, st.Items)
	}
}

func TestNewSchedObsNilRegistry(t *testing.T) {
	so := par.NewSchedObs(nil)
	if so != nil {
		t.Fatal("nil registry must yield a nil (no-op) SchedObs")
	}
	// The nil SchedObs must be safe to thread through a run.
	if _, err := par.Run(context.Background(), 2, 8, so, func(_, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
