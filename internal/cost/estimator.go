package cost

import (
	"hash/fnv"
	"math"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// Estimator derives output statistics for operators under a Mode. A single
// Estimator is immutable and safe for concurrent use: every derivation carves
// its output's column statistics from the Arena its caller passes, which
// thereby owns their lifetime (see Props).
type Estimator struct {
	Cat  *catalog.Catalog
	Mode Mode
	// Day selects which day's true input sizes the true oracle sees; the
	// estimated mode ignores it (the optimizer's stats are stale).
	Day int
}

// NewEstimated returns the optimizer-facing estimator.
func NewEstimated(cat *catalog.Catalog) *Estimator {
	return &Estimator{Cat: cat, Mode: ModeEstimated}
}

// NewTrue returns the ground-truth oracle for the given day.
func NewTrue(cat *catalog.Catalog, day int) *Estimator {
	return &Estimator{Cat: cat, Mode: ModeTrue, Day: day}
}

// Scan returns the properties of reading a stream with the given output
// schema, applying an optional embedded scan predicate.
func (e *Estimator) Scan(a *Arena, table string, schema []plan.Column, pred *plan.Expr) Props {
	st := e.Cat.Stream(table)
	var rows, rowBytes float64 = 1000, 100
	if st != nil {
		rowBytes = st.BytesPerRow
		if e.Mode == ModeTrue {
			rows = st.TrueRows(e.Day)
		} else {
			rows = st.BaseRows
		}
	}
	ndv := a.take(len(schema))
	for _, c := range schema {
		d := rows
		if st != nil {
			if col := st.Column(colBase(c)); col != nil {
				if e.Mode == ModeTrue {
					d = col.TrueDistinct
				} else {
					d = col.Distinct
				}
			}
		}
		ndv = ndv.set(c.ID, minf(d, rows))
	}
	p := Props{Rows: rows, RowBytes: rowBytes, NDV: ndv}
	if pred != nil {
		p = e.Filter(a, p, pred)
	}
	return p
}

// colBase returns the base column name from a lineage source "stream.col",
// or the column's own name when it has no such source.
func colBase(c plan.Column) string {
	if _, col, ok := catalog.SplitSource(c.Source); ok {
		return col
	}
	return c.Name
}

// Filter returns the properties after applying pred to input p. The output
// shares p's NDV set unless clamping to the reduced row count changes an
// entry (copy-on-write).
func (e *Estimator) Filter(a *Arena, p Props, pred *plan.Expr) Props {
	sel := e.Selectivity(pred, p)
	rows := maxf(1, p.Rows*sel)
	return Props{Rows: rows, RowBytes: p.RowBytes, NDV: clamped(a, p.NDV, rows)}
}

// Selectivity returns the selectivity of pred against input p.
//
// In estimated mode, conjunctions use exponential backoff in the order the
// conjuncts appear: sel = s1 * s2^(1/2) * s3^(1/4) * ... — so rules that
// reorder or merge predicates (SelectPredNormalized, SelectIntoGet) genuinely
// change the estimate, which is one of the mechanisms by which different rule
// configurations yield different estimated costs (§5.3, "changing node
// properties").
//
// In true mode, conjunctions multiply exactly and are corrected by the
// catalog's hidden cross-column correlation factors.
func (e *Estimator) Selectivity(pred *plan.Expr, p Props) float64 {
	if pred == nil {
		return 1
	}
	switch pred.Kind {
	case plan.ExprAnd:
		if e.Mode == ModeEstimated {
			sel := 1.0
			exp := 1.0
			for _, c := range pred.Args {
				sel *= math.Pow(e.Selectivity(c, p), exp)
				exp /= 2
			}
			return clampSel(sel)
		}
		sel := 1.0
		for _, c := range pred.Args {
			sel *= e.Selectivity(c, p)
		}
		return clampSel(sel * e.correlationBoost(pred.Args))
	case plan.ExprOr:
		// Disjunction via inclusion-exclusion under independence.
		notSel := 1.0
		for _, c := range pred.Args {
			notSel *= 1 - e.Selectivity(c, p)
		}
		return clampSel(1 - notSel)
	case plan.ExprCmp:
		return e.cmpSelectivity(pred, p)
	}
	return 1
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// correlationBoost returns the product of correlation factors for pairs of
// conjuncts over correlated columns of the same base stream. Only the true
// oracle calls it.
func (e *Estimator) correlationBoost(conjuncts []*plan.Expr) float64 {
	type ref struct {
		stream, col string
	}
	var buf [8]ref // on the stack unless a predicate has more conjuncts
	refs := buf[:0]
	for _, c := range conjuncts {
		if col, ok := singleColumn(c); ok {
			if s, base, ok := catalog.SplitSource(col.Source); ok && s != "" {
				refs = append(refs, ref{s, base})
			}
		}
	}
	boost := 1.0
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if refs[i].stream != refs[j].stream {
				continue
			}
			st := e.Cat.Stream(refs[i].stream)
			if st == nil {
				continue
			}
			boost *= st.CorrelationFactor(refs[i].col, refs[j].col)
		}
	}
	return boost
}

// singleColumn returns the sole column referenced by a simple comparison
// col-op-const, if e has that shape.
func singleColumn(e *plan.Expr) (plan.Column, bool) {
	if e.Kind != plan.ExprCmp || len(e.Args) != 2 {
		return plan.Column{}, false
	}
	l, r := e.Args[0], e.Args[1]
	if l.Kind == plan.ExprColumn && r.Kind == plan.ExprConst {
		return l.Col, true
	}
	if r.Kind == plan.ExprColumn && l.Kind == plan.ExprConst {
		return r.Col, true
	}
	return plan.Column{}, false
}

func (e *Estimator) cmpSelectivity(pred *plan.Expr, p Props) float64 {
	l, r := pred.Args[0], pred.Args[1]
	// Normalize const-op-col to col-op'-const.
	op := pred.Op
	if l.Kind == plan.ExprConst && r.Kind == plan.ExprColumn {
		l, r = r, l
		op = flipCmp(op)
	}
	if l.Kind == plan.ExprColumn && r.Kind == plan.ExprConst {
		return e.colConstSelectivity(l.Col, op, r.Lit, p)
	}
	if l.Kind == plan.ExprColumn && r.Kind == plan.ExprColumn {
		// Column-column comparison outside join context.
		ndv := maxf(p.ColNDV(l.Col.ID), p.ColNDV(r.Col.ID))
		switch op {
		case plan.OpEQ:
			return clampSel(1 / maxf(1, ndv))
		case plan.OpNE:
			return clampSel(1 - 1/maxf(1, ndv))
		default:
			return 1.0 / 3
		}
	}
	// Arithmetic or opaque comparison: magic constant, as real engines use.
	return 1.0 / 3
}

func flipCmp(op plan.CmpOp) plan.CmpOp {
	switch op {
	case plan.OpLT:
		return plan.OpGT
	case plan.OpLE:
		return plan.OpGE
	case plan.OpGT:
		return plan.OpLT
	case plan.OpGE:
		return plan.OpLE
	}
	return op
}

func (e *Estimator) colConstSelectivity(col plan.Column, op plan.CmpOp, lit plan.Literal, p Props) float64 {
	_, cc, sk := e.Cat.ColumnBySource(col.Source)
	ndv := p.ColNDV(col.ID)
	switch op {
	case plan.OpEQ:
		if e.Mode == ModeTrue && cc != nil && cc.Skew > 0 {
			// True frequency of the matched value under the Zipf law:
			// the value's rank is derived deterministically from the
			// literal so recurring instances with different constants
			// hit different frequency ranks.
			return clampSel(zipfFreq(valueRank(lit, cc), cc, sk.ZipfNorm))
		}
		return clampSel(1 / maxf(1, ndv))
	case plan.OpNE:
		return clampSel(1 - 1/maxf(1, ndv))
	case plan.OpLT, plan.OpLE, plan.OpGT, plan.OpGE:
		if lit.IsString || cc == nil || cc.Max <= cc.Min {
			return 1.0 / 3
		}
		frac := (lit.F - cc.Min) / (cc.Max - cc.Min)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		if op == plan.OpGT || op == plan.OpGE {
			frac = 1 - frac
		}
		if e.Mode == ModeTrue && cc.Skew > 0 {
			// Skewed columns concentrate mass at low values; a range
			// predicate's true selectivity deviates from the uniform
			// fraction. Model with a power transform.
			frac = math.Pow(frac, 1/(1+cc.Skew))
		}
		return clampSel(frac)
	}
	return 1.0 / 3
}

// valueRank maps a literal deterministically to a frequency rank in
// [1, distinct].
func valueRank(lit plan.Literal, cc *catalog.Column) int {
	d := int(cc.TrueDistinct)
	if d < 1 {
		d = 1
	}
	if !lit.IsString && cc.Max > cc.Min {
		frac := (lit.F - cc.Min) / (cc.Max - cc.Min)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		r := int(frac*float64(d-1)) + 1
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(lit.String()))
	return int(h.Sum64()%uint64(d)) + 1
}

// zipfFreq returns the relative frequency of the value of rank r in column
// cc under its Zipf skew; norm is the column's harmonic normaliser
// (catalog.ColumnSkew.ZipfNorm). Ranks past the catalog's rank cap wrap onto
// the capped ranks the normaliser was summed over.
func zipfFreq(r int, cc *catalog.Column, norm float64) float64 {
	if n := catalog.MaxRanks; int(cc.TrueDistinct) > n {
		r = r % n
		if r == 0 {
			r = n
		}
	}
	return (1 / math.Pow(float64(r), cc.Skew)) / norm
}

// Join returns the properties of an inner join of l and r under pred.
// Equi-join cardinality uses the containment assumption |L||R|/max(ndv);
// the true oracle additionally multiplies the skew fan-out of the most
// skewed join key — the underestimate class that makes nested-loop-style
// plans disastrous (§1).
func (e *Estimator) Join(a *Arena, l, r Props, pred *plan.Expr) Props {
	// Until the final clamp, out is the cross product's statistics — what a
	// residual conjunct's selectivity is estimated against.
	out := Props{Rows: l.Rows * r.Rows, RowBytes: l.RowBytes + r.RowBytes, NDV: merged(a, l.NDV, r.NDV)}
	sel := 1.0
	applied := false
	for _, c := range plan.Conjuncts(pred) {
		if ka, kb, ok := c.EquiJoinSides(); ok {
			ndv := maxf(joinNDV(l, r, ka), joinNDV(l, r, kb))
			s := 1 / maxf(1, ndv)
			if e.Mode == ModeTrue {
				s *= e.keySkewFanout(ka) * e.keySkewFanout(kb)
			}
			if applied && e.Mode == ModeEstimated {
				s = math.Sqrt(s) // backoff on extra equi conjuncts
			}
			sel *= s
			applied = true
		} else {
			sel *= e.Selectivity(c, out)
		}
	}
	out.Rows = maxf(1, out.Rows*clampSel(sel))
	out.NDV.clamp(out.Rows)
	return out
}

// joinNDV returns the NDV of a join key column from whichever side owns it.
func joinNDV(l, r Props, c plan.Column) float64 {
	if v, ok := l.NDV.get(c.ID); ok {
		return v
	}
	if v, ok := r.NDV.get(c.ID); ok {
		return v
	}
	return maxf(l.Rows, r.Rows)
}

// keySkewFanout returns the true fan-out multiplier for a join key: exactly 1
// for an unskewed or unresolvable column, whose fan-out is 1.
func (e *Estimator) keySkewFanout(c plan.Column) float64 {
	_, _, sk := e.Cat.ColumnBySource(c.Source)
	// Dampen: joins rarely realize the full theoretical fan-out.
	return 1 + (sk.Fanout-1)*0.5
}

// GroupBy returns the properties of grouping in by keys with the given
// aggregates.
func (e *Estimator) GroupBy(a *Arena, in Props, keys []plan.Column, aggs []plan.Agg) Props {
	groups := 1.0
	for _, k := range keys {
		groups *= in.ColNDV(k.ID)
	}
	// Grouped output cannot exceed input; multi-key NDV products
	// overestimate heavily, so apply the classic sqrt damping per extra
	// key in estimated mode.
	if e.Mode == ModeEstimated && len(keys) > 1 {
		first := in.ColNDV(keys[0].ID)
		groups = first
		for _, k := range keys[1:] {
			groups *= math.Sqrt(in.ColNDV(k.ID))
		}
	}
	groups = minf(groups, in.Rows)
	if len(keys) == 0 {
		groups = 1
	}
	out := Props{Rows: maxf(1, groups), RowBytes: float64(8 * (len(keys) + len(aggs)))}
	out.NDV = a.take(len(keys) + len(aggs))
	for _, k := range keys {
		out.NDV = out.NDV.set(k.ID, minf(in.ColNDV(k.ID), out.Rows))
	}
	for _, ag := range aggs {
		out.NDV = out.NDV.set(ag.Out.ID, out.Rows)
	}
	return out
}

// UnionAll returns the properties of an n-ary union. Child column NDVs are
// mapped positionally onto the output schema (taken from the first child).
func (e *Estimator) UnionAll(a *Arena, children []Props, childSchemas [][]plan.Column, outSchema []plan.Column) Props {
	out := Props{NDV: a.take(len(outSchema))}
	for _, c := range children {
		out.Rows += c.Rows
		if c.RowBytes > out.RowBytes {
			out.RowBytes = c.RowBytes
		}
	}
	for pos, oc := range outSchema {
		var sum float64
		for ci, c := range children {
			if pos < len(childSchemas[ci]) {
				sum += c.ColNDV(childSchemas[ci][pos].ID)
			}
		}
		out.NDV = out.NDV.set(oc.ID, minf(sum, out.Rows))
	}
	out.Rows = maxf(1, out.Rows)
	return out
}

// Process returns the properties after a user-defined row processor.
func (e *Estimator) Process(a *Arena, in Props, udoName string) Props {
	factor := 1.0
	if u := e.Cat.UDO(udoName); u != nil {
		if e.Mode == ModeTrue {
			factor = u.TrueFactor
		} else {
			factor = u.EstFactor
		}
	}
	out := in
	out.Rows = maxf(1, in.Rows*factor)
	out.NDV = clamped(a, in.NDV, out.Rows)
	return out
}

// Reduce returns the properties after a user-defined per-key reducer.
func (e *Estimator) Reduce(a *Arena, in Props, keys []plan.Column, udoName string) Props {
	// A reducer emits roughly factor rows per key group.
	groups := 1.0
	for _, k := range keys {
		groups *= in.ColNDV(k.ID)
	}
	groups = minf(maxf(1, groups), in.Rows)
	factor := 1.0
	if u := e.Cat.UDO(udoName); u != nil {
		if e.Mode == ModeTrue {
			factor = u.TrueFactor
		} else {
			factor = u.EstFactor
		}
	}
	out := in
	out.Rows = maxf(1, groups*factor)
	out.NDV = clamped(a, in.NDV, out.Rows)
	return out
}

// Top returns the properties of a top-N.
func (e *Estimator) Top(a *Arena, in Props, n int) Props {
	out := in
	out.Rows = minf(in.Rows, float64(n))
	if out.Rows < 1 {
		out.Rows = 1
	}
	out.NDV = clamped(a, in.NDV, out.Rows)
	return out
}

// Project returns the properties of a projection: pass-through columns keep
// their NDV, computed columns default to row count.
func (e *Estimator) Project(a *Arena, in Props, projs []plan.Projection) Props {
	out := Props{Rows: in.Rows, RowBytes: maxf(8, float64(12*len(projs))), NDV: a.take(len(projs))}
	for _, p := range projs {
		if p.Expr.Kind == plan.ExprColumn {
			out.NDV = out.NDV.set(p.Out.ID, in.ColNDV(p.Expr.Col.ID))
		} else {
			out.NDV = out.NDV.set(p.Out.ID, in.Rows)
		}
	}
	return out
}
