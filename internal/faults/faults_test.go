package faults_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"steerq/internal/faults"
	"steerq/internal/xrand"
)

func testPlan() faults.Plan { return faults.DefaultPlan(99) }

func TestDecideIsContentKeyed(t *testing.T) {
	// Two injectors with one plan, decisions taken in different orders, must
	// agree on every (site, tag, attempt): decisions depend on content only.
	a := faults.NewInjector(testPlan())
	b := faults.NewInjector(testPlan())
	type key struct {
		site    faults.Site
		tag     string
		attempt int
	}
	var keys []key
	for i := 0; i < 200; i++ {
		keys = append(keys, key{faults.SiteCompile, fmt.Sprintf("job%d/cand%d", i%7, i), i % 3})
		keys = append(keys, key{faults.SiteExec, fmt.Sprintf("job%d/alt%d", i%7, i), i % 3})
	}
	got := make(map[key]faults.Kind)
	for _, k := range keys {
		got[k] = a.Decide(k.site, k.tag, k.attempt)
	}
	for i := len(keys) - 1; i >= 0; i-- { // reversed order
		k := keys[i]
		if kind := b.Decide(k.site, k.tag, k.attempt); kind != got[k] {
			t.Fatalf("Decide(%v) = %v under reversed order, want %v", k, kind, got[k])
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestDecideRatesAndStats(t *testing.T) {
	in := faults.NewInjector(faults.Plan{
		Seed:    4,
		Compile: faults.Probs{Fail: 0.2, Hang: 0.1, Corrupt: 0.1},
	})
	counts := make(map[faults.Kind]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[in.Decide(faults.SiteCompile, fmt.Sprintf("t%d", i), 0)]++
		// Exec has zero probabilities in this plan: never faults.
		if k := in.Decide(faults.SiteExec, fmt.Sprintf("t%d", i), 0); k != faults.KindNone {
			t.Fatalf("zero-probability site injected %v", k)
		}
	}
	st := in.Stats()
	if st.Decisions != 2*n {
		t.Fatalf("Decisions = %d, want %d", st.Decisions, 2*n)
	}
	if st.Fails != uint64(counts[faults.KindFail]) || st.Hangs != uint64(counts[faults.KindHang]) || st.Corrupts != uint64(counts[faults.KindCorrupt]) {
		t.Fatalf("stats %+v disagree with observed %v", st, counts)
	}
	if st.Injected() != st.Fails+st.Hangs+st.Corrupts {
		t.Fatalf("Injected() = %d inconsistent with %+v", st.Injected(), st)
	}
	// Empirical rates should be near the configured ones (3-sigma-ish slack).
	for kind, want := range map[faults.Kind]float64{faults.KindFail: 0.2, faults.KindHang: 0.1, faults.KindCorrupt: 0.1} {
		got := float64(counts[kind]) / n
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("%v rate = %.3f, want ~%.2f", kind, got, want)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *faults.Injector
	if in.Active() {
		t.Fatal("nil injector reports active")
	}
	if k := in.Decide(faults.SiteCompile, "x", 0); k != faults.KindNone {
		t.Fatalf("nil Decide = %v", k)
	}
	if st := in.Stats(); st != (faults.Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if p := in.Plan(); p != (faults.Plan{}) {
		t.Fatalf("nil Plan = %+v", p)
	}
	if r := in.RetryRand(faults.SiteExec, "x"); r == nil {
		t.Fatal("nil RetryRand returned nil source")
	}
}

func TestRetriesRedrawPerAttempt(t *testing.T) {
	// With the attempt number in the key, a tag that faults at attempt 0 must
	// not fault at every attempt: find such a tag and check later attempts
	// differ somewhere.
	in := faults.NewInjector(faults.Plan{Seed: 11, Compile: faults.Probs{Fail: 0.3}})
	recovered := false
	for i := 0; i < 200 && !recovered; i++ {
		tag := fmt.Sprintf("j%d", i)
		if in.Decide(faults.SiteCompile, tag, 0) != faults.KindFail {
			continue
		}
		for attempt := 1; attempt < 4; attempt++ {
			if in.Decide(faults.SiteCompile, tag, attempt) == faults.KindNone {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Fatal("no faulted tag recovered on retry: attempts do not redraw")
	}
}

func TestPlanValidate(t *testing.T) {
	ok := testPlan()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	bad := []faults.Plan{
		{Compile: faults.Probs{Fail: -0.1}},
		{Exec: faults.Probs{Hang: 1.5}},
		{Compile: faults.Probs{Fail: 0.5, Hang: 0.4, Corrupt: 0.2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
}

func TestKindString(t *testing.T) {
	want := map[faults.Kind]string{
		faults.KindNone:    "none",
		faults.KindFail:    "fail",
		faults.KindHang:    "hang",
		faults.KindCorrupt: "corrupt",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestRetryable(t *testing.T) {
	wrapped := fmt.Errorf("outer: %w", faults.ErrInjected)
	for _, err := range []error{faults.ErrInjected, faults.ErrTimeout, faults.ErrCorrupt, wrapped, context.DeadlineExceeded} {
		if !faults.Retryable(err) {
			t.Errorf("Retryable(%v) = false", err)
		}
	}
	for _, err := range []error{nil, errors.New("no plan"), context.Canceled} {
		if faults.Retryable(err) {
			t.Errorf("Retryable(%v) = true", err)
		}
	}
}

func TestHang(t *testing.T) {
	// Bounded context: Hang blocks until the deadline, then reports a timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := faults.Hang(ctx, faults.SiteExec, "j", 1)
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("Hang with deadline: %v, want ErrTimeout", err)
	}
	// Measured against the context's own deadline: a clock read taken after
	// WithTimeout returns starts late and can see less than the timeout.
	if deadline, _ := ctx.Deadline(); time.Now().Before(deadline) {
		t.Fatal("Hang returned before the deadline")
	}
	// Unbounded context: the watchdog-kill path returns immediately.
	done := make(chan error, 1)
	go func() { done <- faults.Hang(context.Background(), faults.SiteCompile, "j", 0) }()
	select {
	case err := <-done:
		if !errors.Is(err, faults.ErrTimeout) {
			t.Fatalf("Hang without deadline: %v, want ErrTimeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Hang without deadline blocked")
	}
}

func TestInjectedfMentionsOperation(t *testing.T) {
	err := faults.Injectedf(faults.SiteCompile, "A/d0/j3/cand7", 2)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Injectedf not ErrInjected: %v", err)
	}
	for _, want := range []string{"compile", "A/d0/j3/cand7", "attempt 2"} {
		if !contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPolicyBackoff(t *testing.T) {
	p := faults.Policy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	r := xrand.New(3).Derive("backoff-test")
	for retry := 1; retry <= 6; retry++ {
		d := p.Backoff(r, retry)
		nominal := p.BaseBackoff << uint(retry-1)
		if nominal > p.MaxBackoff {
			nominal = p.MaxBackoff
		}
		lo, hi := nominal/2, p.MaxBackoff
		if d < lo || d > hi {
			t.Errorf("Backoff(retry=%d) = %v outside [%v, %v]", retry, d, lo, hi)
		}
	}
	if d := (faults.Policy{}).Backoff(r, 1); d != 0 {
		t.Errorf("zero-policy backoff = %v", d)
	}
	if d := p.Backoff(r, 0); d != 0 {
		t.Errorf("retry 0 backoff = %v", d)
	}
}

func TestBackoffJitterIsSeedDeterministic(t *testing.T) {
	p := faults.DefaultPolicy()
	in := faults.NewInjector(testPlan())
	a := p.Backoff(in.RetryRand(faults.SiteCompile, "j1"), 1)
	b := p.Backoff(in.RetryRand(faults.SiteCompile, "j1"), 1)
	if a != b {
		t.Fatalf("same stream, same retry: %v vs %v", a, b)
	}
}

func TestPolicyOrDefault(t *testing.T) {
	explicit := faults.Policy{MaxAttempts: 7}
	if got := faults.PolicyOrDefault(explicit, nil); got.MaxAttempts != 7 {
		t.Fatalf("explicit policy lost: %+v", got)
	}
	in := faults.NewInjector(testPlan())
	if got := faults.PolicyOrDefault(faults.Policy{}, in); got.MaxAttempts != faults.DefaultPolicy().MaxAttempts {
		t.Fatalf("active injector should default retries on: %+v", got)
	}
	if got := faults.PolicyOrDefault(faults.Policy{}, nil); got.MaxAttempts != 1 {
		t.Fatalf("no injection should mean one attempt: %+v", got)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	p := faults.Policy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second}
	var rec faults.Record
	r := xrand.New(1).Derive("do-test")
	calls := 0
	attempts, err := p.Do(context.Background(), faults.SiteCompile, r, &rec, func(ctx context.Context, attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if attempt < 2 {
			return faults.Injectedf(faults.SiteCompile, "j", attempt)
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls=%d; want (3, nil), 3", attempts, err, calls)
	}
	if rec.CompileRetries != 2 || rec.ExecRetries != 0 {
		t.Fatalf("record %+v, want 2 compile retries", rec)
	}
	if rec.Backoff <= 0 {
		t.Fatalf("no virtual backoff recorded: %+v", rec)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	genuine := errors.New("cascades: no plan")
	var rec faults.Record
	calls := 0
	attempts, err := faults.DefaultPolicy().Do(context.Background(), faults.SiteExec, xrand.New(2), &rec, func(ctx context.Context, attempt int) error {
		calls++
		return genuine
	})
	if !errors.Is(err, genuine) || attempts != 1 || calls != 1 {
		t.Fatalf("Do = (%d, %v), calls=%d; want immediate stop", attempts, err, calls)
	}
	if !rec.IsZero() {
		t.Fatalf("non-retryable failure recorded retries: %+v", rec)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	var rec faults.Record
	calls := 0
	attempts, err := faults.DefaultPolicy().Do(context.Background(), faults.SiteExec, xrand.New(5), &rec, func(ctx context.Context, attempt int) error {
		calls++
		return fmt.Errorf("%w: vertex stuck", faults.ErrTimeout)
	})
	if err == nil || !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("exhausted Do err = %v", err)
	}
	want := faults.DefaultPolicy().MaxAttempts
	if attempts != want || calls != want {
		t.Fatalf("attempts = %d, calls = %d, want %d", attempts, calls, want)
	}
	if rec.ExecRetries != want-1 || rec.Timeouts != want {
		t.Fatalf("record %+v, want %d retries and %d timeouts", rec, want-1, want)
	}
}

func TestDoStopsWhenParentContextSpent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	attempts, err := faults.DefaultPolicy().Do(ctx, faults.SiteCompile, xrand.New(6), nil, func(ctx context.Context, attempt int) error {
		calls++
		cancel() // parent dies during the first attempt
		return faults.Injectedf(faults.SiteCompile, "j", attempt)
	})
	if attempts != 1 || calls != 1 {
		t.Fatalf("Do kept retrying after parent cancellation: attempts=%d calls=%d", attempts, calls)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the attempt's error", err)
	}
}

func TestDoSleepHook(t *testing.T) {
	var slept []time.Duration
	p := faults.Policy{MaxAttempts: 3, BaseBackoff: 8 * time.Millisecond, MaxBackoff: time.Second,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	var rec faults.Record
	_, _ = p.Do(context.Background(), faults.SiteCompile, xrand.New(7), &rec, func(ctx context.Context, attempt int) error {
		return faults.Injectedf(faults.SiteCompile, "j", attempt)
	})
	if len(slept) != 2 {
		t.Fatalf("Sleep called %d times, want 2", len(slept))
	}
	var total time.Duration
	for _, d := range slept {
		total += d
	}
	if total != rec.Backoff {
		t.Fatalf("slept %v but recorded %v", total, rec.Backoff)
	}
}

func TestRecordAddAndRetries(t *testing.T) {
	a := faults.Record{CompileRetries: 1, ExecRetries: 2, Timeouts: 3, Corruptions: 4, Fallbacks: 5, GiveUps: 6, Backoff: time.Second}
	b := a
	b.Add(a)
	want := faults.Record{CompileRetries: 2, ExecRetries: 4, Timeouts: 6, Corruptions: 8, Fallbacks: 10, GiveUps: 12, Backoff: 2 * time.Second}
	if b != want {
		t.Fatalf("Add = %+v, want %+v", b, want)
	}
	if a.Retries() != 3 {
		t.Fatalf("Retries = %d, want 3", a.Retries())
	}
	if a.IsZero() || !(faults.Record{}).IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

func TestParsePlanAndRates(t *testing.T) {
	p, err := faults.ParsePlan("", "")
	if p != nil || err != nil {
		t.Fatalf("empty ParsePlan = (%v, %v)", p, err)
	}
	if _, err := faults.ParsePlan("", "compile.fail=0.5"); err == nil {
		t.Fatal("rates without seed accepted")
	}
	if _, err := faults.ParsePlan("not-a-number", ""); err == nil {
		t.Fatal("bad seed accepted")
	}
	p, err = faults.ParsePlan("42", "compile.fail=0.5, exec.hang=0.25,compile.corrupt=0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Compile.Fail != 0.5 || p.Exec.Hang != 0.25 || p.Compile.Corrupt != 0 {
		t.Fatalf("ParsePlan = %+v", p)
	}
	// Unmentioned rates keep the defaults.
	if p.Compile.Hang != faults.DefaultPlan(42).Compile.Hang {
		t.Fatalf("unmentioned rate changed: %+v", p)
	}
	for _, bad := range []string{"compile=0.5", "disk.fail=0.5", "compile.melt=0.5", "compile.fail=lots", "compile.fail=2"} {
		if _, err := faults.ParsePlan("1", bad); err == nil {
			t.Errorf("bad rates %q accepted", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(faults.EnvSeed, "")
	t.Setenv(faults.EnvRates, "")
	in, err := faults.FromEnv()
	if in != nil || err != nil {
		t.Fatalf("unset env: (%v, %v)", in, err)
	}
	t.Setenv(faults.EnvSeed, "1337")
	t.Setenv(faults.EnvRates, "exec.fail=0.5")
	in, err = faults.FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Plan(); got.Seed != 1337 || got.Exec.Fail != 0.5 {
		t.Fatalf("FromEnv plan = %+v", got)
	}
	t.Setenv(faults.EnvSeed, "nope")
	if _, err := faults.FromEnv(); err == nil {
		t.Fatal("bad env seed accepted")
	}
}
