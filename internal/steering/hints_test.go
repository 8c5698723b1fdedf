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

// TestRecommend: the recommendation `steerq pipeline` prints is
// MinimalConfig rendered by HintsFor. There is none without an improving
// alternative; otherwise the hints parse back to the minimized
// configuration, which agrees with the measured one on every bit of the
// measured compile's footprint and toggles nothing outside it.
func TestRecommend(t *testing.T) {
	cat := steerCatalog()
	h := steerHarness(cat)
	job := steerJob(t, cat)
	p := steering.NewPipeline(h, xrand.New(3))
	p.MaxCandidates = 60
	p.ExecutePerJob = 5
	a, err := p.AnalyzeCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	rs := h.Opt.Rules
	minimal, ok := steering.MinimalConfig(a, rs)
	best := a.BestAlternative(steering.MetricRuntime)
	if best == nil || best.Metrics.RuntimeSec >= a.Default.Metrics.RuntimeSec {
		if ok {
			t.Fatal("recommendation issued without an improvement")
		}
		t.Skip("no improving alternative at this seed")
	}
	if !ok {
		t.Fatal("no recommendation despite an improving alternative")
	}
	cfg, err := steering.ParseHints(steering.HintsFor(minimal, rs).String(), rs)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Equal(minimal) {
		t.Fatal("hints do not round-trip the minimized configuration")
	}
	if d := cfg.Xor(best.Config).And(best.Footprint); !d.IsEmpty() {
		t.Fatalf("minimized configuration disagrees with the measured one on footprint rules %v", d.Ones())
	}
	if !best.Footprint.Contains(cfg.Xor(rs.DefaultConfig())) {
		t.Fatal("recommendation toggles rules outside the measured footprint")
	}
}
