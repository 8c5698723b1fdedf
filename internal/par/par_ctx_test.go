package par_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"steerq/internal/par"
)

// TestMapEdgeCases is the table-driven edge-case suite for the pool: empty
// input, every item failing, and failures mixed with successes, at both the
// serial fast path and a parallel worker count.
func TestMapEdgeCases(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("item %d failed", i) }
	cases := []struct {
		name     string
		n        int
		failWhen func(i int) bool
		wantErr  string // substring of the lowest-index failure; "" = no error
		wantOut  func(i int) int
	}{
		{
			name: "zero-items",
			n:    0, failWhen: func(int) bool { return false },
			wantErr: "", wantOut: nil,
		},
		{
			name: "single-item",
			n:    1, failWhen: func(int) bool { return false },
			wantErr: "", wantOut: func(i int) int { return i * i },
		},
		{
			name: "all-error",
			n:    37, failWhen: func(int) bool { return true },
			wantErr: "item 0 failed", wantOut: func(int) int { return 0 },
		},
		{
			name: "mixed-errors-keep-successful-slots",
			n:    64, failWhen: func(i int) bool { return i%5 == 3 },
			wantErr: "item 3 failed",
			wantOut: func(i int) int {
				if i%5 == 3 {
					return 0 // failed slots keep the zero value
				}
				return i * i
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				items := make([]int, tc.n)
				for i := range items {
					items[i] = i
				}
				out, err := par.Map(workers, items, func(i, item int) (int, error) {
					if tc.failWhen(i) {
						return 0, boom(i)
					}
					return item * item, nil
				})
				if tc.wantErr == "" && err != nil {
					t.Fatalf("err = %v", err)
				}
				if tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
					t.Fatalf("err = %v, want %q (the lowest failing index)", err, tc.wantErr)
				}
				if len(out) != tc.n {
					t.Fatalf("len(out) = %d, want %d", len(out), tc.n)
				}
				for i, v := range out {
					if want := tc.wantOut(i); v != want {
						t.Fatalf("out[%d] = %d, want %d", i, v, want)
					}
				}
			})
		}
	}
}

// TestRunPassesLiveContext: Run hands no context to the callback — an item
// sees the caller's ctx (values and cancellation) by closing over it.
func TestRunPassesLiveContext(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "payload")
	var ran atomic.Int32
	err := par.Run(ctx, 4, 16, func(_, i int) error {
		if ctx.Value(ctxKey{}) != "payload" {
			return errors.New("wrong context")
		}
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 16 {
		t.Fatalf("err=%v ran=%d", err, ran.Load())
	}
}

func TestRunPreCanceledSkipsEverything(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := par.Run(ctx, workers, 32, func(_, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d indices ran under a dead context", workers, ran.Load())
		}
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	// Index 5 cancels the context; indices not yet started must record
	// ctx.Err() instead of running, and the error must be the lowest-index
	// failure. With workers=1 the schedule is serial, so exactly indices
	// 0..5 run and 6..N-1 are skipped deterministically.
	const n = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	out := make([]int, n)
	err := par.Run(ctx, 1, n, func(_, i int) error {
		ran.Add(1)
		if i == 5 {
			cancel()
		}
		out[i] = i + 1
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from index 6", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("%d indices ran, want 6 (serial run stops starting new items)", got)
	}
	for i := 0; i < n; i++ {
		want := i + 1
		if i > 5 {
			want = 0 // skipped slots keep the zero value
		}
		if out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	// Parallel: timing decides which indices ran, but the invariants hold —
	// canceled error, and no new items after cancellation had propagated
	// (checked loosely: at least the canceling item ran). Every other item
	// holds its worker until index 5 cancels, so no index past 7 can start
	// first; otherwise fast items could drain the whole range before the
	// cancellation lands and nothing would be skipped.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var ran2 atomic.Int32
	err = par.Run(ctx2, 8, n, func(_, i int) error {
		ran2.Add(1)
		if i == 5 {
			cancel2()
		} else {
			<-ctx2.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
	if ran2.Load() == 0 || ran2.Load() > n {
		t.Fatalf("parallel ran %d items", ran2.Load())
	}
}

func TestRunItemErrorBeatsLaterCancellation(t *testing.T) {
	// A genuine item failure at a low index must win over the ctx.Err()
	// entries of later skipped indices.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := par.Run(ctx, 1, 10, func(_, i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the item's own error", err)
	}
}
