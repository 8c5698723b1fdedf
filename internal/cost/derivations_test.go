package cost

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"steerq/internal/plan"
)

// derivation is one named Estimator output.
type derivation struct {
	name string
	p    Props
}

// derivations runs every Estimator derivation over the estCatalog streams,
// each in the shapes that exercise the column-statistics set: repeated and
// unordered IDs, overlapping join sides, ragged union schemas, clamps that
// copy and clamps that share.
func derivations(e *Estimator, a *Arena) []derivation {
	var out []derivation
	add := func(name string, p Props) Props {
		out = append(out, derivation{name, p})
		return p
	}
	col := plan.ColExpr
	num := plan.NumExpr
	k, v, f1, f2 := scol(1, "k"), scol(2, "v"), scol(3, "f1"), scol(4, "f2")
	dk, attr := dcol(10, "k"), dcol(11, "attr")
	cnt := plan.Column{ID: 99, Name: "c"}
	sum := plan.Column{ID: 98, Name: "s"}

	// Scan: plain, predicated, unknown stream, unordered and repeated IDs.
	s := add("scan/s", e.Scan(a, "s", sSchema(), nil))
	d := add("scan/d", e.Scan(a, "d", []plan.Column{dk, attr}, nil))
	add("scan/s-eq-skewed", e.Scan(a, "s", sSchema(), plan.Cmp(plan.OpEQ, col(k), num(17))))
	add("scan/s-range", e.Scan(a, "s", sSchema(), plan.Cmp(plan.OpLT, col(v), num(20))))
	add("scan/unknown", e.Scan(a, "nope", []plan.Column{{ID: 7, Name: "x"}, {ID: 5, Name: "y"}}, nil))
	add("scan/unordered-repeated", e.Scan(a, "s", []plan.Column{f2, k, scol(4, "v"), f1, scol(1, "f1")}, nil))

	// Filter: backoff conjunction, correlated pair, disjunction, col-col,
	// opaque; a selective chain ends in clamped copies.
	corr := plan.And(plan.Cmp(plan.OpEQ, col(f1), num(3)), plan.Cmp(plan.OpEQ, col(f2), num(2)))
	add("filter/and3", e.Filter(a, s, plan.And(plan.Cmp(plan.OpGT, col(v), num(10)), plan.Cmp(plan.OpEQ, col(f1), num(3)), plan.Cmp(plan.OpNE, col(f2), num(1)))))
	fc := add("filter/correlated", e.Filter(a, s, corr))
	add("filter/or", e.Filter(a, s, plan.Or(plan.Cmp(plan.OpEQ, col(f1), num(3)), plan.Cmp(plan.OpGE, col(v), num(90)))))
	add("filter/colcol", e.Filter(a, s, plan.Cmp(plan.OpEQ, col(k), col(v))))
	add("filter/string", e.Filter(a, s, plan.Cmp(plan.OpLT, col(v), plan.StrExpr("m"))))
	add("filter/chain", e.Filter(a, fc, plan.Cmp(plan.OpEQ, col(k), num(400))))
	add("filter/noop", e.Filter(a, d, plan.Cmp(plan.OpGE, col(attr), num(-5))))

	// Join: equi, equi + residuals, two equi conjuncts, cross, and a self
	// join whose sides carry the same column IDs with different values.
	eq := plan.Cmp(plan.OpEQ, col(k), col(dk))
	add("join/equi", e.Join(a, s, d, eq))
	add("join/equi-flipped", e.Join(a, d, s, eq))
	add("join/equi-residual", e.Join(a, s, d, plan.And(eq, plan.Cmp(plan.OpGT, col(v), num(50)), plan.Cmp(plan.OpLT, col(attr), col(f1)))))
	add("join/equi2", e.Join(a, s, d, plan.And(eq, plan.Cmp(plan.OpEQ, col(f1), col(attr)))))
	add("join/cross", e.Join(a, s, d, nil))
	add("join/residual-only", e.Join(a, fc, d, plan.Cmp(plan.OpNE, col(f2), col(attr))))
	add("join/self-overlap", e.Join(a, s, fc, plan.Cmp(plan.OpEQ, col(k), col(k))))
	add("join/empty-side", e.Join(a, Props{Rows: 40, RowBytes: 8}, d, nil))

	// GroupBy: 0–3 keys, a repeated key, an aggregate writing over a key.
	aggs := []plan.Agg{{Fn: "COUNT", Out: cnt}, {Fn: "SUM", Arg: col(v), Out: sum}}
	add("groupby/0", e.GroupBy(a, s, nil, aggs))
	add("groupby/1", e.GroupBy(a, s, []plan.Column{k}, aggs))
	add("groupby/2", e.GroupBy(a, s, []plan.Column{f1, f2}, aggs))
	add("groupby/3", e.GroupBy(a, fc, []plan.Column{v, f1, k}, aggs[:1]))
	add("groupby/repeated-key", e.GroupBy(a, s, []plan.Column{f2, f1, f2}, nil))
	add("groupby/agg-over-key", e.GroupBy(a, s, []plan.Column{f1}, []plan.Agg{{Fn: "MAX", Arg: col(v), Out: f1}}))
	add("groupby/unknown-key", e.GroupBy(a, d, []plan.Column{k}, aggs[:1]))

	// UnionAll: ragged child schemas, an output schema repeating an ID.
	add("union/same", e.UnionAll(a, []Props{s, fc}, [][]plan.Column{sSchema(), sSchema()}, sSchema()))
	add("union/ragged", e.UnionAll(a, []Props{s, d, fc}, [][]plan.Column{sSchema(), {dk, attr}, {k}}, sSchema()))
	add("union/repeated-out", e.UnionAll(a, []Props{d, d}, [][]plan.Column{{dk, attr}, {attr, dk}}, []plan.Column{dk, dk}))
	add("union/none", e.UnionAll(a, nil, nil, []plan.Column{k}))

	// Process / Reduce / Top: known and unknown operators, clamps on both
	// sides of the entries.
	add("process/u", e.Process(a, s, "u"))
	add("process/unknown", e.Process(a, fc, "nope"))
	add("reduce/u", e.Reduce(a, s, []plan.Column{f1, f2}, "u"))
	add("reduce/nokeys", e.Reduce(a, s, nil, "u"))
	add("top/100", e.Top(a, s, 100))
	add("top/0", e.Top(a, s, 0))
	add("top/huge", e.Top(a, d, 1<<30))

	// Project: pass-through, computed, repeated outputs (last one wins).
	add("project/mixed", e.Project(a, s, []plan.Projection{
		{Expr: col(k), Out: k},
		{Expr: plan.Cmp(plan.OpAdd, col(v), num(1)), Out: plan.Column{ID: 50, Name: "vx"}},
		{Expr: col(f1), Out: plan.Column{ID: 40, Name: "g"}},
	}))
	add("project/repeated-out", e.Project(a, s, []plan.Projection{
		{Expr: col(v), Out: plan.Column{ID: 60, Name: "a"}},
		{Expr: col(f2), Out: plan.Column{ID: 55, Name: "b"}},
		{Expr: num(1), Out: plan.Column{ID: 60, Name: "a"}},
		{Expr: col(f1), Out: plan.Column{ID: 55, Name: "b"}},
	}))
	add("project/none", e.Project(a, s, nil))
	return out
}

// renderDerivations prints one line per derivation: every float by its IEEE
// bits, the column statistics in column-ID order.
func renderDerivations(mode string, ds []derivation) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s %s rows=%016x bytes=%016x ndv=", mode, d.name, math.Float64bits(d.p.Rows), math.Float64bits(d.p.RowBytes))
		for i, c := range d.p.NDV {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%016x", c.ID, math.Float64bits(c.V))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDerivationsMatchParent holds every Estimator derivation, in both modes,
// to the outputs of the map-backed estimator it replaced: testdata/
// derivations.golden is this file's rendering captured at commit ec23d7e
// (NDV maps printed in key order) and is frozen — the implementation it
// records is gone.
func TestDerivationsMatchParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/derivations.golden")
	if err != nil {
		t.Fatal(err)
	}
	cat := estCatalog()
	var a Arena
	got := renderDerivations("est", derivations(NewEstimated(cat), &a)) +
		renderDerivations("true", derivations(NewTrue(cat, 3), &a))
	wantLines, gotLines := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d derivations rendered, golden holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("derivation %d diverges from the parent's\n got: %s\nwant: %s", i, gotLines[i], wantLines[i])
		}
	}
}
