package par_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"steerq/internal/par"
)

func TestRunZeroItems(t *testing.T) {
	for _, n := range []int{0, -3} {
		err := par.Run(context.Background(), 8, n, func(i int) error {
			t.Fatalf("callback ran for n=%d (i=%d)", n, i)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: err = %v", n, err)
		}
	}
}

func TestRunWorkersExceedItems(t *testing.T) {
	// 64 workers over 3 items must run every index exactly once.
	var ran [3]atomic.Int32
	err := par.Run(context.Background(), 64, 3, func(i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestRunAllErrorLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := par.Run(context.Background(), workers, 41, func(i int) error {
			return fmt.Errorf("item %d failed", i)
		})
		if err == nil || err.Error() != "item 0 failed" {
			t.Fatalf("workers=%d: err = %v, want the lowest failing index", workers, err)
		}
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
		err := par.Run(context.Background(), workers, n, func(i int) error {
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
	err := par.Run(ctx, 8, n, func(i int) error {
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
