package serve

import (
	"path/filepath"
	"strings"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/obs"
)

// The SDK is the in-process steering surface the executor consults.
var _ abtest.Steerer = (*SDK)(nil)

// counterValue reads one counter's current value from a registry snapshot,
// matching on name and every key/value label pair. Reading the snapshot —
// rather than resolving the counter — keeps the assertion from registering
// metric families the production code never touched.
func counterValue(t *testing.T, reg *obs.Registry, name string, labels ...string) uint64 {
	t.Helper()
	if len(labels)%2 != 0 {
		t.Fatalf("odd label list for %s", name)
	}
points:
	for _, c := range reg.Snapshot().Counters {
		if c.Name != name || len(c.Labels)*2 != len(labels) {
			continue
		}
		for i := 0; i < len(labels); i += 2 {
			if !hasLabel(c.Labels, labels[i], labels[i+1]) {
				continue points
			}
		}
		return c.Value
	}
	return 0
}

func hasLabel(ls []obs.Label, key, value string) bool {
	for _, l := range ls {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}

func TestSDKBeforeFirstLoad(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	sdk := NewSDK(reg)

	if sdk.Ready() {
		t.Fatal("Ready before any load")
	}
	if sdk.Active() != nil {
		t.Fatal("Active table before any load")
	}
	d, ok := sdk.Lookup(vec(1))
	if ok || d.Version != 0 || !d.Config.IsEmpty() {
		t.Fatalf("lookup before load: %+v, %v", d, ok)
	}
	if _, ok := sdk.Decide(vec(1)); ok {
		t.Fatal("Decide before load reported ok")
	}
	if got := counterValue(t, reg, "steerq_serve_lookups_total", "outcome", "unloaded"); got != 2 {
		t.Fatalf("unloaded counter %d, want 2", got)
	}
}

func TestSDKLoadLookupAndMetrics(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	sdk := NewSDK(reg)
	b := testBundle(t, 3, 6)
	if err := sdk.Load(b); err != nil {
		t.Fatal(err)
	}
	if !sdk.Ready() || sdk.Active() == nil || sdk.Active().Version() != 3 {
		t.Fatal("bundle not active after Load")
	}

	// One hit, one fallback, one miss.
	if d, ok := sdk.Lookup(b.Entries[0].Signature); !ok || d.Kind != KindHit {
		t.Fatalf("hit lookup: %+v, %v", d, ok)
	}
	if d, ok := sdk.Lookup(b.Entries[2].Signature); !ok || d.Kind != KindFallback {
		t.Fatalf("fallback lookup: %+v, %v", d, ok)
	}
	if d, ok := sdk.Lookup(vec(255)); !ok || d.Kind != KindDefault {
		t.Fatalf("default lookup: %+v, %v", d, ok)
	}
	cfg, ok := sdk.Decide(b.Entries[0].Signature)
	if !ok || !cfg.Equal(b.Entries[0].Config) {
		t.Fatalf("Decide: %s, %v", cfg.Hex(), ok)
	}

	for _, c := range []struct {
		outcome string
		want    uint64
	}{{"hit", 2}, {"fallback", 1}, {"default", 1}, {"unloaded", 0}} {
		if got := counterValue(t, reg, "steerq_serve_lookups_total", "outcome", c.outcome); got != c.want {
			t.Fatalf("lookups{outcome=%s} = %d, want %d", c.outcome, got, c.want)
		}
	}
	snap := reg.Snapshot()
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["steerq_serve_bundle_version"] != 3 {
		t.Fatalf("version gauge %v", gauges["steerq_serve_bundle_version"])
	}
	if gauges["steerq_serve_bundle_entries"] != 6 {
		t.Fatalf("entries gauge %v", gauges["steerq_serve_bundle_entries"])
	}
	if got := counterValue(t, reg, "steerq_serve_bundle_swaps_total"); got != 1 {
		t.Fatalf("swaps counter %d", got)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "steerq_serve_lookup_seconds" && h.Count == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("lookup latency histogram missing or wrong count")
	}
}

func TestSDKRejectKeepsOldTable(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	sdk := NewSDK(reg)
	good := testBundle(t, 1, 4)
	if err := sdk.Load(good); err != nil {
		t.Fatal(err)
	}

	data := encodeBundle(t, testBundle(t, 2, 4))
	cases := map[string][]byte{
		"corrupted": append(append([]byte(nil), data[:len(data)-3]...), 0xff, 0xff, 0xff),
		"truncated": data[:len(data)/2],
		"garbage":   []byte("not a bundle at all"),
		"empty":     nil,
	}
	n := uint64(0)
	for name, bad := range cases {
		err := sdk.LoadBytes(bad)
		if err == nil {
			t.Fatalf("%s upload accepted", name)
		}
		if !strings.HasPrefix(err.Error(), "serve: ") {
			t.Fatalf("%s error not serve-prefixed: %v", name, err)
		}
		n++
		if got := counterValue(t, reg, "steerq_serve_bundle_rejected_total"); got != n {
			t.Fatalf("after %s: rejected counter %d, want %d", name, got, n)
		}
		if v := sdk.Active().Version(); v != 1 {
			t.Fatalf("after %s: active version %d, old table lost", name, v)
		}
	}
	if err := sdk.LoadFile(filepath.Join(t.TempDir(), "missing.stqb")); err == nil {
		t.Fatal("LoadFile on missing path accepted")
	}
	if err := sdk.Load(nil); err == nil {
		t.Fatal("Load(nil) accepted")
	}
	if got := counterValue(t, reg, "steerq_serve_bundle_rejected_total"); got != n+2 {
		t.Fatalf("after missing path and nil: rejected counter %d, want %d", got, n+2)
	}
	if v := sdk.Active().Version(); v != 1 {
		t.Fatalf("after missing path and nil: active version %d, old table lost", v)
	}

	// A good upload still swaps after all those rejects.
	if err := sdk.LoadBytes(data); err != nil {
		t.Fatal(err)
	}
	if v := sdk.Active().Version(); v != 2 {
		t.Fatalf("good upload after rejects: version %d", v)
	}
	// So does a good file, the path a daemon boots through.
	path := filepath.Join(t.TempDir(), "v3.stqb")
	if err := testBundle(t, 3, 5).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := sdk.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if v := sdk.Active().Version(); v != 3 {
		t.Fatalf("good file after rejects: version %d", v)
	}
}

// TestLookupAllocationFree is the acceptance criterion that the steering
// read path never allocates after warmup: the daemon answers lookups from
// an immutable map behind an atomic pointer, with instruments pre-resolved.
func TestLookupAllocationFree(t *testing.T) {
	sdk := NewSDK(obs.NewWithClock(obs.FrozenClock()))
	b := testBundle(t, 1, 8)
	if err := sdk.Load(b); err != nil {
		t.Fatal(err)
	}
	hit := b.Entries[0].Signature
	miss := vec(255)
	// Warmup.
	sdk.Lookup(hit)
	sdk.Lookup(miss)
	if avg := testing.AllocsPerRun(1000, func() {
		sdk.Lookup(hit)
		sdk.Lookup(miss)
	}); avg != 0 {
		t.Fatalf("Lookup allocates %.2f objects per run, want 0", avg)
	}
	// The uninstrumented path (nil registry) must be allocation-free too.
	bare := NewSDK(nil)
	if err := bare.Load(b); err != nil {
		t.Fatal(err)
	}
	bare.Lookup(hit)
	if avg := testing.AllocsPerRun(1000, func() { bare.Lookup(hit) }); avg != 0 {
		t.Fatalf("uninstrumented Lookup allocates %.2f objects per run, want 0", avg)
	}
}
