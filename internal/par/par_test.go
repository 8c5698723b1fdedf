package par_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"steerq/internal/par"
)

func TestWorkersResolution(t *testing.T) {
	if got := par.Workers(3); got != 3 {
		t.Fatalf("explicit Workers(3) = %d", got)
	}
	t.Setenv(par.EnvWorkers, "5")
	if got := par.Workers(0); got != 5 {
		t.Fatalf("env Workers(0) = %d, want 5", got)
	}
	if got := par.Workers(2); got != 2 {
		t.Fatalf("explicit beats env: Workers(2) = %d", got)
	}
	t.Setenv(par.EnvWorkers, "not-a-number")
	if got := par.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("bad env Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv(par.EnvWorkers, "-4")
	if got := par.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative env Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestMapSlotsResultsByInputIndex(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		out, err := par.Map(workers, items, func(i, item int) (string, error) {
			return fmt.Sprintf("%d*2=%d", item, item*2), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, s := range out {
			if want := fmt.Sprintf("%d*2=%d", i, i*2); s != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

// TestFirstErrorIsLowestIndex: with some indices failing and the rest
// succeeding, Run returns the lowest failing index's error at any worker
// count (TestRunAllErrorLowestIndexWins covers every index failing).
func TestFirstErrorIsLowestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		err := par.Run(context.Background(), workers, 64, func(i int) error {
			switch i {
			case 50:
				return errB
			case 13:
				return errA
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: error %v, want lowest-index error %v", workers, err, errA)
		}
	}
}

func TestErrorDoesNotStopOtherIndices(t *testing.T) {
	var ran atomic.Int32
	err := par.Run(context.Background(), 4, 32, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := ran.Load(); got != 32 {
		t.Fatalf("ran %d of 32 indices", got)
	}
}
