package loadgen

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/obs"
	"steerq/internal/serve"
	"steerq/internal/xrand"
)

// TestSDKHTTPLoadEquivalence is the cross-transport oracle for the traffic
// this package shapes: the same pinned request stream — bundle hits,
// fallbacks and MissSignatures misses — driven by concurrent workers at the
// in-process SDK and at a live daemon over HTTP must produce the identical
// per-signature decision mix. The serving tiers are two transports over one
// table.
func TestSDKHTTPLoadEquivalence(t *testing.T) {
	b := equivBundle(40)
	sdkA := loadedSDK(t, b)
	srv := serve.NewServer(loadedSDK(t, b), obs.NewWithClock(obs.FrozenClock()))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	base := "http://" + srv.Addr()
	if err := serve.WaitReady(base, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	known := make([]bitvec.Vector, len(b.Entries))
	for i, e := range b.Entries {
		known[i] = e.Signature
	}
	pool := append(append([]bitvec.Vector(nil), known...), MissSignatures(99, 8, known)...)
	r := xrand.New(21).Derive("loadgen", "equiv")
	stream := make([]bitvec.Vector, 600)
	for i := range stream {
		stream[i] = pool[r.Intn(len(pool))]
	}

	sdkMix, sdkErrs := driveMix(stream, func(sig bitvec.Vector) (serve.Decision, error) {
		d, ok := sdkA.Lookup(sig)
		if !ok {
			return d, errors.New("sdk has no table loaded")
		}
		return d, nil
	})
	httpMix, httpErrs := driveMix(stream, func(sig bitvec.Vector) (serve.Decision, error) {
		return serve.Steer(base, sig)
	})
	if sdkErrs != 0 || httpErrs != 0 {
		t.Fatalf("errors: sdk %d http %d", sdkErrs, httpErrs)
	}
	var kinds [3]int
	for _, m := range sdkMix {
		for k, n := range m {
			kinds[k] += n
		}
	}
	if kinds[serve.KindHit] == 0 || kinds[serve.KindFallback] == 0 || kinds[serve.KindDefault] == 0 {
		t.Fatalf("stream does not exercise every decision kind: %v", kinds)
	}
	if !reflect.DeepEqual(sdkMix, httpMix) {
		t.Fatal("per-signature decision mixes differ between SDK and HTTP")
	}
}

// decisionMix counts, per signature, how many requests resolved to each
// decision kind; the key carries the decision's version and config too, so a
// transport that returned the right kind with the wrong config still differs.
type decisionMix map[string]map[serve.Kind]int

// driveMix sends stream through steer on two workers, stride-assigned, and
// merges their private tallies.
func driveMix(stream []bitvec.Vector, steer func(bitvec.Vector) (serve.Decision, error)) (decisionMix, int) {
	const workers = 2
	mixes := make([]decisionMix, workers)
	errs := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := decisionMix{}
			for i := w; i < len(stream); i += workers {
				d, err := steer(stream[i])
				if err != nil {
					errs[w]++
					continue
				}
				key := fmt.Sprintf("%s v%d %s", stream[i].Hex(), d.Version, d.Config.Hex())
				if m[key] == nil {
					m[key] = map[serve.Kind]int{}
				}
				m[key][d.Kind]++
			}
			mixes[w] = m
		}(w)
	}
	wg.Wait()
	out, nerr := decisionMix{}, 0
	for w, m := range mixes {
		nerr += errs[w]
		for key, kinds := range m {
			if out[key] == nil {
				out[key] = map[serve.Kind]int{}
			}
			for k, n := range kinds {
				out[key][k] += n
			}
		}
	}
	return out, nerr
}

// equivBundle builds a version-3 bundle of n entries with distinct
// signatures; every third entry is a fallback pinned to the default.
func equivBundle(n int) *bundle.Bundle {
	b := &bundle.Bundle{
		Version:     3,
		CreatedUnix: 1700000000,
		Workload:    "W",
		Default:     bitvec.New(200, 201),
	}
	for i := 0; i < n; i++ {
		sig := bitvec.New(100)
		for j := 0; j < 16; j++ {
			if i>>j&1 == 1 {
				sig.Set(j)
			}
		}
		e := bundle.Entry{Signature: sig, Config: bitvec.New(150, 151+i%8)}
		if i%3 == 2 {
			e.Config, e.Fallback = b.Default, true
		}
		b.Entries = append(b.Entries, e)
	}
	return b
}

// loadedSDK builds an SDK on a frozen clock with b loaded.
func loadedSDK(t *testing.T, b *bundle.Bundle) *serve.SDK {
	t.Helper()
	sdk := serve.NewSDK(obs.NewWithClock(obs.FrozenClock()))
	if err := sdk.Load(b); err != nil {
		t.Fatal(err)
	}
	return sdk
}
