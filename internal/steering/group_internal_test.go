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

// TestCachedGrouperMatchesUncached: the Grouper a pipeline hands out — cold,
// then warm — yields the un-cached Grouper's groups, in its order, and its
// error (the lowest failing job's) at 1 and 8 workers. Within one call a job
// listed twice compiles once; a job without a fingerprint compiles on every
// pass and keeps its own signature; a warm pass over fingerprinted jobs, and
// DefaultSignature of a grouped one, make no optimizer call.
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
		byFP, err := NewGrouper(h).Group(jobs)
		if err != nil || len(byFP) < 4 {
			t.Fatalf("workers=%d: un-cached grouping: %d groups, err %v", workers, len(byFP), err)
		}
		// Two unfingerprinted copies of jobs with distinct signatures: all-zero
		// hashes, so a memo keyed by any hash would alias them.
		var bare []*workload.Job
		for _, grp := range byFP[:2] {
			j := *grp.Jobs[0]
			j.ID += "/bare"
			j.TemplateHash, j.InstanceHash, j.InputsHash = 0, 0, 0
			bare = append(bare, &j)
		}
		input := append(append(append([]*workload.Job(nil), jobs...), jobs[:6]...), bare...)
		want, err := NewGrouper(h).Group(input)
		if err != nil {
			t.Fatal(err)
		}
		for _, grp := range want {
			for _, j := range grp.Jobs {
				if j == bare[0] && !grp.Signature.Equal(byFP[0].Signature) || j == bare[1] && !grp.Signature.Equal(byFP[1].Signature) {
					t.Fatalf("workers=%d: unfingerprinted %s grouped under another job's signature", workers, j.ID)
				}
			}
		}

		p := NewPipeline(h, nil)
		p.Cache = NewCompileCache()
		for _, pass := range []string{"cold", "warm"} {
			n0 := optimizerCalls()
			got, err := p.Grouper().Group(input)
			if err != nil || render(got) != render(want) {
				t.Fatalf("workers=%d %s: cached grouping differs (err %v):\n%s--- want ---\n%s",
					workers, pass, err, render(got), render(want))
			}
			wantCalls := len(bare)
			if pass == "cold" {
				wantCalls += len(jobs)
			}
			if n := optimizerCalls() - n0; n != uint64(wantCalls) {
				t.Fatalf("workers=%d %s: %d optimizer calls, want %d (duplicates compile once, bare jobs every pass)",
					workers, pass, n, wantCalls)
			}
		}
		if st := p.Cache.Stats(); st.Entries != len(jobs) || st.Hits != uint64(len(jobs)) || st.Misses != uint64(len(jobs)) {
			t.Fatalf("workers=%d: %+v after grouping %d distinct jobs twice", workers, st, len(jobs))
		}
		n0 := optimizerCalls()
		if _, err := p.Grouper().Group(jobs); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := p.Grouper().DefaultSignature(j); err != nil {
				t.Fatal(err)
			}
		}
		if n := optimizerCalls() - n0; n != 0 {
			t.Fatalf("workers=%d: warm Group and DefaultSignature made %d optimizer calls", workers, n)
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
		_, gotErr := p.Grouper().Group(broken)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), broken[5].ID) {
			t.Fatalf("workers=%d: cached grouping err %v, un-cached %v", workers, gotErr, wantErr)
		}
	}
}
