package catalog_test

import (
	"math"
	"testing"

	"steerq/internal/catalog"
	"steerq/internal/workload"
)

// refSkewFanout and refZipfNorm are the loops the true oracle ran on every
// call before ColumnBySource served their results: the join fan-out's and the
// harmonic normaliser out of cost.zipfFreq, verbatim.
func refSkewFanout(distinct, skew float64) float64 {
	if skew <= 0 || distinct <= 1 {
		return 1
	}
	d := int(distinct)
	if d > 4096 {
		d = 4096
	}
	var s1, s2 float64
	for i := 1; i <= d; i++ {
		f := 1 / math.Pow(float64(i), skew)
		s1 += f
		s2 += f * f
	}
	r := (s2 / (s1 * s1)) * float64(d)
	if r < 1 {
		return 1
	}
	return r
}

func refZipfNorm(d, z float64) float64 {
	n := int(d)
	if n < 1 {
		n = 1
	}
	if n > 4096 {
		n = 4096
	}
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), z)
	}
	return h
}

// TestColumnSkewMatchesReference: for every column of the generated lakes,
// what ColumnBySource serves is bit for bit what the per-call loops computed
// from the column's current fields — which also holds the generators to not
// touching Columns after AddStream.
func TestColumnSkewMatchesReference(t *testing.T) {
	for _, p := range []workload.Profile{workload.ProfileA(0.01, 7), workload.ProfileB(0.01, 7)} {
		cat := workload.Generate(p).Cat
		cols, skewed := 0, 0
		for _, name := range cat.StreamNames() {
			st := cat.Stream(name)
			for i := range st.Columns {
				c := &st.Columns[i]
				gotSt, gotCol, sk := cat.ColumnBySource(name + "." + c.Name)
				if gotSt != st || gotCol != c {
					t.Fatalf("%s.%s resolved to %p/%p, want %p/%p", name, c.Name, gotSt, gotCol, st, c)
				}
				want := refSkewFanout(c.TrueDistinct, c.Skew)
				if sk.Fanout != want {
					t.Fatalf("%s.%s: fan-out %v, reference %v", name, c.Name, sk.Fanout, want)
				}
				cols++
				if c.Skew > 0 {
					skewed++
					if norm := refZipfNorm(c.TrueDistinct, c.Skew); sk.ZipfNorm != norm {
						t.Fatalf("%s.%s: Zipf normaliser %v, reference %v", name, c.Name, sk.ZipfNorm, norm)
					}
				}
			}
		}
		if skewed == 0 || skewed == cols {
			t.Fatalf("workload %s: %d of %d columns skewed; the lake should mix both", p.Name, skewed, cols)
		}
	}
}

func TestColumnBySourceMisses(t *testing.T) {
	cat := workload.Generate(workload.ProfileB(0.002, 7)).Cat
	stream := cat.StreamNames()[0]
	for _, src := range []string{"", "user_id", "no/such/stream.user_id", stream + ".no_such_column", stream + "."} {
		st, col, sk := cat.ColumnBySource(src)
		if st != nil || col != nil || sk != (catalog.ColumnSkew{Fanout: 1}) {
			t.Errorf("ColumnBySource(%q) = %v, %v, %+v; want nil, nil, fan-out 1", src, st, col, sk)
		}
	}
}

func TestSplitSource(t *testing.T) {
	for _, tc := range []struct {
		src, stream, col string
		ok               bool
	}{
		{"lake/A/fact_001.user_id", "lake/A/fact_001", "user_id", true},
		{"a.b.c", "a.b", "c", true},
		{".c", "", "c", true},
		{"computed", "", "", false},
		{"", "", "", false},
	} {
		stream, col, ok := catalog.SplitSource(tc.src)
		if stream != tc.stream || col != tc.col || ok != tc.ok {
			t.Errorf("SplitSource(%q) = %q, %q, %v", tc.src, stream, col, ok)
		}
	}
}
