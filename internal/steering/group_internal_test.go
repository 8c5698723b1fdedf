package steering

import (
	"fmt"
	"strings"
	"testing"

	"steerq/internal/abtest"
	"steerq/internal/cost"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/workload"
)

// TestCachedGrouperMatchesUncached: a Grouper wired to a compile cache the
// way BuildBundleCtx wires its own — cold, then warm without a compile —
// yields the un-cached Grouper's groups, in its order, and its error (the
// lowest failing job's) at 1 and 8 workers.
func TestCachedGrouperMatchesUncached(t *testing.T) {
	w := workload.Generate(workload.ProfileA(0.0005, 9))
	jobs := w.Day(0)[:24]
	render := func(groups []*JobGroup) string {
		var buf strings.Builder
		for _, g := range groups {
			fmt.Fprintf(&buf, "%s:", g.Signature.Hex())
			for _, j := range g.Jobs {
				fmt.Fprintf(&buf, " %s", j.ID)
			}
			buf.WriteByte('\n')
		}
		return buf.String()
	}
	for _, workers := range []int{1, 8} {
		opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
		reg := obs.New()
		opt.SetObs(reg)
		optimizerCalls := func() uint64 {
			const name = "steerq_cascades_compiles_total"
			return reg.Counter(name, "outcome", "ok").Value() + reg.Counter(name, "outcome", "noplan").Value()
		}
		h := abtest.New(w.Cat, opt, 7)
		h.Workers = workers
		want, err := NewGrouper(h).Group(jobs)
		if err != nil || len(want) < 4 {
			t.Fatalf("workers=%d: un-cached grouping: %d groups, err %v", workers, len(want), err)
		}
		cache := NewCompileCache()
		for _, pass := range []string{"cold", "warm"} {
			g := NewGrouper(h)
			g.compiles = cache
			n0 := optimizerCalls()
			got, err := g.Group(jobs)
			if err != nil || render(got) != render(want) {
				t.Fatalf("workers=%d %s: cached grouping differs (err %v):\n%s--- want ---\n%s",
					workers, pass, err, render(got), render(want))
			}
			if n := optimizerCalls() - n0; (pass == "warm") != (n == 0) {
				t.Fatalf("workers=%d %s: %d optimizer calls", workers, pass, n)
			}
		}
		if st := cache.Stats(); st.Entries != len(jobs) || st.Hits != uint64(len(jobs)) || st.Misses != uint64(len(jobs)) {
			t.Fatalf("workers=%d: %+v after grouping %d jobs twice", workers, st, len(jobs))
		}

		// Two jobs that cannot compile: the lower index's error must win,
		// with the rest of the day already in the cache.
		broken := append([]*workload.Job(nil), jobs...)
		for _, i := range []int{5, 11} {
			bad := *broken[i]
			bad.Root, bad.InstanceHash = nil, 0xbad0+uint64(i)
			broken[i] = &bad
		}
		_, wantErr := NewGrouper(h).Group(broken)
		g := NewGrouper(h)
		g.compiles = cache
		_, gotErr := g.Group(broken)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), broken[5].ID) {
			t.Fatalf("workers=%d: cached grouping err %v, un-cached %v", workers, gotErr, wantErr)
		}
	}
}
