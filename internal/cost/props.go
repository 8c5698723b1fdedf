// Package cost implements the two statistics layers of the simulated SCOPE
// optimizer:
//
//   - ModeEstimated — the cardinality estimator and cost model the optimizer
//     uses during plan search. It sees stale base row counts and per-column
//     NDV/min-max statistics, assumes value uniformity and predicate
//     independence (softened by exponential backoff), and trusts fixed row
//     multipliers for user-defined operators.
//
//   - ModeTrue — the ground-truth oracle used by the execution simulator. It
//     sees actual daily row counts, value skew, cross-column correlations and
//     the real expansion of user-defined operators.
//
// Both layers share one code path parameterized by Mode, so the *structure*
// of estimation is identical and only the statistical assumptions differ —
// the same situation as a production optimizer whose formulas are fine but
// whose inputs and independence assumptions are wrong (§1, §5.3 of the
// paper).
//
// Every costed operator of every candidate derives its statistics here;
// derivations carve from a caller-owned Arena, whose growth make is the
// package's one allocation on that path (TestArenaKeepsEarlierSetsValid pins
// a warm arena at zero).
package cost

import (
	"steerq/internal/plan"
)

// Mode selects estimated or true statistics.
type Mode int

// Estimation modes.
const (
	ModeEstimated Mode = iota
	ModeTrue
)

// Props are the derived statistical properties of one operator's output.
//
// NDV is carved from the Arena the derivation was handed and is immutable once
// its derivation returns: a Props value copy aliases it, and a derivation whose
// clamp would change an entry writes a fresh copy (clamped) instead. A Props
// is therefore valid exactly as long as the arenas of its derivation chain are
// not Reset; nothing that outlives an arena may hold one.
type Props struct {
	// Rows is the output cardinality.
	Rows float64
	// RowBytes is the average output row width in bytes.
	RowBytes float64
	// NDV holds the per-column numbers of distinct values.
	NDV NDVs
}

// ColNDV is one column's number of distinct values.
type ColNDV struct {
	ID plan.ColumnID
	V  float64
}

// NDVs is a set of column statistics: sorted by column ID, one entry per
// column — a map's semantics (last write wins, len counts distinct columns, nil
// is the empty set) without a map's allocations. Operators carry 2–20 columns,
// so lookups are a short scan. Every derivation treats each entry on its own
// and none folds over the set, so no float depends on the order of entries.
type NDVs []ColNDV

// get returns the entry for id.
func (s NDVs) get(id plan.ColumnID) (float64, bool) {
	for _, c := range s {
		if c.ID == id {
			return c.V, true
		}
		if c.ID > id {
			break
		}
	}
	return 0, false
}

// set writes one column into a set under construction, overwriting an entry
// the column already has. The caller took capacity for every write up front,
// so the append never reallocates; schemas mostly list columns in ID order,
// so the insertion point is usually the end.
func (s NDVs) set(id plan.ColumnID, v float64) NDVs {
	i := len(s)
	for i > 0 && s[i-1].ID > id {
		i--
	}
	if i > 0 && s[i-1].ID == id {
		s[i-1].V = v
		return s
	}
	s = append(s, ColNDV{})
	copy(s[i+1:], s[i:])
	s[i] = ColNDV{ID: id, V: v}
	return s
}

// merged returns the union of l and r in a; r wins a column both carry.
func merged(a *Arena, l, r NDVs) NDVs {
	out := a.take(len(l) + len(r))
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		switch {
		case l[i].ID < r[j].ID:
			out = append(out, l[i])
			i++
		case l[i].ID > r[j].ID:
			out = append(out, r[j])
			j++
		default:
			out = append(out, r[j])
			i, j = i+1, j+1
		}
	}
	out = append(out, l[i:]...)
	return append(out, r[j:]...)
}

// clamp clamps every entry to [1, rows] in place. Only call it on a set the
// caller just built — shared sets go through clamped instead.
func (s NDVs) clamp(rows float64) {
	for i := range s {
		s[i].V = clampV(s[i].V, rows)
	}
}

// clampV clamps one entry to [1, rows]; NaN passes through.
func clampV(v, rows float64) float64 {
	if v > rows {
		v = rows
	}
	if v < 1 {
		v = 1
	}
	return v
}

// clamped returns s with every entry clamped to [1, rows]. When no entry needs
// clamping s itself is returned and shared between the old and new Props (the
// common case on already-clamped chains); otherwise a clamped copy is carved
// from a, leaving s untouched.
func clamped(a *Arena, s NDVs, rows float64) NDVs {
	dirty := false
	for _, c := range s {
		if c.V > rows || c.V < 1 {
			dirty = true
			break
		}
	}
	if !dirty {
		return s
	}
	out := a.take(len(s))
	for _, c := range s {
		out = append(out, ColNDV{ID: c.ID, V: clampV(c.V, rows)})
	}
	return out
}

// ColNDV returns the distinct count for a column, defaulting to Rows when
// unknown (a safe upper bound).
func (p Props) ColNDV(id plan.ColumnID) float64 {
	if v, ok := p.NDV.get(id); ok && v > 0 {
		return v
	}
	return p.Rows
}

// arenaFirstLen is the first buffer of an Arena: 1 KB, so the execution
// simulator's throw-away arena costs a small plan next to nothing.
const arenaFirstLen = 64

// Arena is the bump allocator statistics are carved from. Its owner decides
// their lifetime: Reset rewinds, after which everything carved before is
// garbage to be overwritten. A full buffer is replaced by one twice its size —
// sets carved earlier keep the old one alive and stay valid — so an arena
// reset between similar uses stops allocating after the second. The entries
// hold no pointers: the collector never scans a buffer and Reset need not
// zero one. The zero Arena is ready to use; an Arena is for one goroutine.
type Arena struct {
	buf []ColNDV
	off int // buf[off:] is free
}

// take returns an empty set with capacity for n entries.
func (a *Arena) take(n int) NDVs {
	if n > len(a.buf)-a.off {
		a.buf = make([]ColNDV, max(2*len(a.buf), n, arenaFirstLen))
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// Reset rewinds the arena: every set carved from it so far is dead.
func (a *Arena) Reset() { a.off = 0 }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
