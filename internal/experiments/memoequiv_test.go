package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
)

// memoEquivRecord is one compile outcome as the retired string-keyed
// interning path produced it (frozen at the commit that deleted that path).
type memoEquivRecord struct {
	Job       string `json:"job"`
	Config    string `json:"config"`
	NoPlan    bool   `json:"noplan,omitempty"`
	Groups    int    `json:"groups"`
	Exprs     int    `json:"exprs"`
	CostBits  string `json:"cost_bits,omitempty"`
	Signature string `json:"signature,omitempty"`
	Plan      string `json:"plan,omitempty"`
}

func memoEquivRecordOf(job, config string, res *cascades.Result, err error) (memoEquivRecord, error) {
	if err != nil && !errors.Is(err, cascades.ErrNoPlan) {
		return memoEquivRecord{}, err
	}
	rec := memoEquivRecord{Job: job, Config: config, NoPlan: err != nil, Groups: res.Groups, Exprs: res.Exprs}
	if err == nil {
		rec.CostBits = fmt.Sprintf("%016x", math.Float64bits(res.Cost))
		rec.Signature = res.Signature.Hex()
		rec.Plan = res.Plan.String()
	}
	return rec, nil
}

// TestHashedInternMatchesLegacy is the memo-equivalence golden test of the
// interning path: the first 20 jobs of the tiny Workload A, each compiled
// under the default configuration and a sparser one, must produce what the
// retired string-keyed memo index produced for them — same group and
// expression counts, cost bits, rule signature and rendered physical plan —
// as frozen in testdata/memoequiv.golden.json. Each job is compiled twice:
// one-shot, and with both configurations through one shared session. A
// divergence is an interning bug (a missed duplicate or a false merge) or a
// session that leaked state between compiles. The cost bits, signatures and
// plans were re-derived in the change after commit 335f664, when a scan's
// degree of parallelism began to be sized on its stream's bytes rather than
// rows² × bytes per row; every group and expression count stayed.
func TestHashedInternMatchesLegacy(t *testing.T) {
	raw, err := os.ReadFile("testdata/memoequiv.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []memoEquivRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(tinyConfig())
	const wl = "A"
	jobs := r.Day(wl, 0)
	if len(jobs) > 20 {
		jobs = jobs[:20]
	}
	opt := r.Harness(wl).Opt
	cfg := opt.Rules.DefaultConfig()
	// A second, sparser configuration exercises rule-dependent memo shapes.
	sparse := cfg
	for id := 0; id < bitvec.Width; id += 7 {
		sparse.Clear(id)
	}
	if len(want) != 2*len(jobs) || len(jobs) == 0 {
		t.Fatalf("golden holds %d records, want 2 per job over %d jobs", len(want), len(jobs))
	}

	for ji, j := range jobs {
		sess := opt.NewSession(j.Root)
		for ci, c := range []struct {
			name string
			cfg  bitvec.Vector
		}{{"default", cfg}, {"sparse", sparse}} {
			w := want[2*ji+ci]
			res, err := opt.Optimize(j.Root, c.cfg)
			got, err := memoEquivRecordOf(j.ID, c.name, res, err)
			if err != nil {
				t.Fatalf("%s %s: %v", j.ID, c.name, err)
			}
			if got != w {
				t.Errorf("%s %s: one-shot compile diverges from the string-keyed path\ngot:  %+v\nwant: %+v", j.ID, c.name, got, w)
			}
			res, err = sess.Optimize(c.cfg, true)
			if got, err = memoEquivRecordOf(j.ID, c.name, res, err); err != nil {
				t.Fatalf("%s %s (session): %v", j.ID, c.name, err)
			}
			if got != w {
				t.Errorf("%s %s: session compile diverges from the string-keyed path\ngot:  %+v\nwant: %+v", j.ID, c.name, got, w)
			}
		}
		sess.Close()
	}
}
