package steering_test

import (
	"context"
	"strings"
	"testing"

	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/xrand"
)

func TestHintsRoundTrip(t *testing.T) {
	rs := rules.Catalog()
	cfg := rs.DefaultConfig()
	cfg.Clear(rules.IDJoinImpl2)
	cfg.Clear(rules.IDSelectIntoGet)
	cfg.Set(rules.IDCorrelatedJoinOnUnionAll1)

	h := steering.HintsFor(cfg, rs)
	if len(h.Disable) != 2 || len(h.Enable) != 1 {
		t.Fatalf("hints %+v", h)
	}
	text := h.String()
	for _, want := range []string{"DISABLE:", "JoinImpl2", "SelectIntoGet", "ENABLE:", "CorrelatedJoinOnUnionAll1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("hint text %q missing %q", text, want)
		}
	}
	got, err := steering.ParseHints(text, rs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cfg) {
		t.Fatal("hints did not round-trip the configuration")
	}
}

func TestHintsDefault(t *testing.T) {
	rs := rules.Catalog()
	h := steering.HintsFor(rs.DefaultConfig(), rs)
	if h.String() != "DEFAULT\n" {
		t.Fatalf("default hints %q", h.String())
	}
	got, err := steering.ParseHints("DEFAULT\n", rs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rs.DefaultConfig()) {
		t.Fatal("DEFAULT did not parse to the default configuration")
	}
}

func TestParseHintsErrors(t *testing.T) {
	rs := rules.Catalog()
	cases := []string{
		"DISABLE: NoSuchRule",
		"FROBNICATE: JoinImpl2",
		"DISABLE: EnforceExchange", // required rules cannot be hinted
	}
	for _, text := range cases {
		if _, err := steering.ParseHints(text, rs); err == nil {
			t.Errorf("ParseHints(%q) succeeded, want error", text)
		}
	}
}

func TestRecommend(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	job.Workload = "A"
	p := steering.NewPipeline(h, xrand.New(3))
	p.MaxCandidates = 60
	p.ExecutePerJob = 5
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rec := steering.Recommend(a, h.Opt.Rules)
	best := a.BestAlternative(steering.MetricRuntime)
	if best == nil || best.Metrics.RuntimeSec >= a.Default.Metrics.RuntimeSec {
		if rec != nil {
			t.Fatal("recommendation issued without an improvement")
		}
		t.Skip("no improving alternative at this seed")
	}
	if rec == nil {
		t.Fatal("no recommendation despite an improving alternative")
	}
	if rec.SteeredRuntimeSec >= rec.DefaultRuntimeSec {
		t.Fatalf("recommendation does not improve: %+v", rec)
	}
	// The hints reconstruct the minimized configuration, which agrees with
	// the measured configuration on every span rule.
	cfg, err := steering.ParseHints(rec.Hints, h.Opt.Rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Span.Ones() {
		if cfg.Get(id) != best.Config.Get(id) {
			t.Fatalf("minimized configuration disagrees with the measured one on span rule %d", id)
		}
	}
	// And names only span toggles: nothing outside the span differs from
	// the default.
	if !a.Span.Contains(cfg.Xor(h.Opt.Rules.DefaultConfig())) {
		t.Fatal("recommendation toggles rules outside the job span")
	}
}
