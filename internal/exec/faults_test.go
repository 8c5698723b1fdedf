package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"steerq/internal/faults"
)

func TestRunCtxWithoutInjectorMatchesRun(t *testing.T) {
	x := New(execCatalog(), 42)
	p := scanPlan(10)
	want := x.Run(p, 0, "job1")
	got, err := x.RunCtx(context.Background(), p, 0, "job1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("RunCtx = %+v, Run = %+v", got, want)
	}
}

func TestRunCtxCleanRetryReproducesMetrics(t *testing.T) {
	// Noise derives from (seed, tag, day) — not the attempt — so a retried
	// execution of the same plan is bit-identical to the first attempt.
	x := New(execCatalog(), 42)
	x.Faults = faults.NewInjector(faults.Plan{Seed: 1}) // armed, zero rates
	p := scanPlan(10)
	m0, err0 := x.RunCtx(context.Background(), p, 0, "job1", 0)
	m3, err3 := x.RunCtx(context.Background(), p, 0, "job1", 3)
	if err0 != nil || err3 != nil {
		t.Fatal(err0, err3)
	}
	if m0 != m3 {
		t.Fatalf("attempt 0 and attempt 3 metrics differ: %+v vs %+v", m0, m3)
	}
}

// execTagDeciding scans tags until the injector takes the wanted decision at
// the exec site for attempt 0.
func execTagDeciding(t *testing.T, in *faults.Injector, want faults.Kind) string {
	t.Helper()
	for i := 0; i < 5000; i++ {
		tag := fmt.Sprintf("probe%d", i)
		if in.Decide(faults.SiteExec, tag, 0) == want {
			return tag
		}
	}
	t.Fatalf("no tag decides %v", want)
	return ""
}

func TestRunCtxInjectedFail(t *testing.T) {
	x := New(execCatalog(), 42)
	x.Faults = faults.NewInjector(faults.Plan{Seed: 2, Exec: faults.Probs{Fail: 0.3}})
	tag := execTagDeciding(t, x.Faults, faults.KindFail)
	m, err := x.RunCtx(context.Background(), scanPlan(10), 0, tag, 0)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if m != (Metrics{}) {
		t.Fatalf("failed execution returned metrics %+v", m)
	}
}

func TestRunCtxInjectedHangHitsDeadline(t *testing.T) {
	x := New(execCatalog(), 42)
	x.Faults = faults.NewInjector(faults.Plan{Seed: 2, Exec: faults.Probs{Hang: 0.3}})
	tag := execTagDeciding(t, x.Faults, faults.KindHang)
	// The deadline runs from WithTimeout, so the clock starts before it: a
	// start taken after could read less than 2 ms at a deadline that passed.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err := x.RunCtx(ctx, scanPlan(10), 0, tag, 0)
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("hang returned before the deadline")
	}
}

func TestRunCtxSpentContextIsTimeout(t *testing.T) {
	x := New(execCatalog(), 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := x.RunCtx(ctx, scanPlan(10), 0, "job1", 0)
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout for a spent context", err)
	}
}
