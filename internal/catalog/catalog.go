// Package catalog models the data lake underneath the simulated SCOPE
// cluster: named input streams with schemas and statistics.
//
// Every stream carries two layers of statistics:
//
//   - Estimated statistics — what the optimizer's cardinality estimator sees:
//     base row counts collected at some point in the past, per-column distinct
//     counts and min/max ranges, and nothing else. The estimator combines them
//     under uniformity and independence assumptions (internal/cost).
//
//   - True statistics — the hidden ground truth used by the execution
//     simulator: actual daily row counts (inputs evolve day to day, §3.1.1),
//     value skew on join keys, correlations between predicate columns, and
//     the real expansion factors of user-defined operators.
//
// The gap between the two layers is exactly the class of optimizer error the
// paper exploits: "changing rule configurations can impact [estimates],
// thus the costs across recompilation runs ... are not directly comparable"
// (§5.3) and "severe cardinality underestimates can lead an optimizer to pick
// a disastrous plan" (§1).
package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"steerq/internal/xrand"
)

// Column describes one column of a stream together with its statistics.
type Column struct {
	Name string

	// Distinct is the estimated number of distinct values (what the
	// optimizer sees; may be stale relative to TrueDistinct).
	Distinct float64

	// TrueDistinct is the actual distinct count.
	TrueDistinct float64

	// Min and Max bound the numeric domain of the column. Predicates in
	// generated jobs compare against constants drawn from this range.
	Min, Max float64

	// Skew is the Zipf exponent of the value frequency distribution.
	// 0 means uniform. Join keys with Skew > 0 produce true join fan-outs
	// far above the estimator's uniform-frequency prediction.
	Skew float64
}

// Correlation records that predicates on columns A and B of the same stream
// are correlated: the true joint selectivity of conjunctive filters on both
// is Factor times the independence product (clamped to the smaller single
// selectivity). Factor > 1 means positively correlated predicates — the
// classic source of underestimates.
type Correlation struct {
	A, B   string
	Factor float64
}

// Stream is a named input stream (SCOPE's unit of storage).
type Stream struct {
	Name    string
	Columns []Column

	// BaseRows is the row count the optimizer's statistics were collected
	// at. The estimator always uses this number.
	BaseRows float64

	// DailySigma is the log-normal sigma of the daily size multiplier;
	// TrueRows(day) fluctuates around BaseRows with this spread plus a
	// mild growth trend.
	DailySigma float64

	// GrowthPerDay is a multiplicative daily growth factor for the true
	// size (1.0 = no growth). Recurring templates whose inputs grow are
	// how the paper's regressions-across-weeks scenario arises.
	GrowthPerDay float64

	// BytesPerRow is the average row width, used for I/O accounting.
	BytesPerRow float64

	Correlations []Correlation

	seed uint64

	// trueRowsMu guards trueRowsByDay, the memoized daily true sizes.
	// TrueRows sits on the execution simulator's per-node path and an
	// uncached computation seeds a math/rand generator; the same few days
	// are asked for constantly.
	trueRowsMu    sync.Mutex
	trueRowsByDay map[int]float64

	// skew has one slot per column, sized by AddStream (see ColumnSkew).
	skew []skewSlot
}

// ColumnSkew is what the true oracle derives from a column's (TrueDistinct,
// Skew) pair: two sums of up to MaxRanks math.Pow calls, so each column
// computes them once — on its first ColumnBySource rather than in AddStream,
// where the ~800 skewed columns of Workload A at scale 0.01 would add 60 ms
// (a fifth) to discover_cold's set-up for columns most runs never touch.
type ColumnSkew struct {
	// Fanout is SkewFanout(TrueDistinct, Skew); 1 for an unskewed column.
	Fanout float64
	// ZipfNorm is the harmonic normaliser of the column's Zipf law, the sum
	// of i^-Skew over ranks i <= min(TrueDistinct, MaxRanks); 0 if unskewed.
	ZipfNorm float64
}

type skewSlot struct {
	once sync.Once
	v    ColumnSkew
}

// MaxRanks caps the value ranks the Zipf sums run over. The sums do not
// converge for Skew <= 1: the cap is a modelling choice (ranks past it share
// the first MaxRanks' frequencies), not an approximation of an infinite sum.
const MaxRanks = 4096

// Catalog is a read-only set of streams plus registered user-defined
// operators.
type Catalog struct {
	streams map[string]*Stream
	names   []string
	udos    map[string]*UDO
}

// UDO describes a user-defined operator (PROCESS or REDUCE body).
// SCOPE jobs mix relational and user-defined operators (§3.1); their
// cardinality behaviour is opaque to the optimizer.
type UDO struct {
	Name string

	// EstFactor is the row multiplier the optimizer assumes (SCOPE-like
	// engines use a fixed guess for opaque operators).
	EstFactor float64

	// TrueFactor is the actual row multiplier applied at execution.
	TrueFactor float64

	// CPUPerRow is the relative CPU weight of the operator per input row
	// (user code is often much heavier than relational operators).
	CPUPerRow float64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		streams: make(map[string]*Stream),
		udos:    make(map[string]*UDO),
	}
}

// AddStream registers a stream. It panics on duplicate names: catalogs are
// constructed once by generators, and a duplicate indicates a generator bug.
// The stream's Columns must not change afterwards: the statistics served by
// ColumnBySource are derived from them once.
func (c *Catalog) AddStream(s *Stream) {
	if _, dup := c.streams[s.Name]; dup {
		// steerq:allow-panic — catalogs are built once by generators; a duplicate is a generator bug.
		panic(fmt.Sprintf("catalog: duplicate stream %q", s.Name))
	}
	s.skew = make([]skewSlot, len(s.Columns))
	c.streams[s.Name] = s
	c.names = append(c.names, s.Name)
	sort.Strings(c.names)
}

// AddUDO registers a user-defined operator.
func (c *Catalog) AddUDO(u *UDO) {
	if _, dup := c.udos[u.Name]; dup {
		// steerq:allow-panic — catalogs are built once by generators; a duplicate is a generator bug.
		panic(fmt.Sprintf("catalog: duplicate UDO %q", u.Name))
	}
	c.udos[u.Name] = u
}

// Stream returns the named stream, or nil if absent.
func (c *Catalog) Stream(name string) *Stream { return c.streams[name] }

// UDO returns the named user-defined operator, or nil if absent.
func (c *Catalog) UDO(name string) *UDO { return c.udos[name] }

// StreamNames returns all stream names in sorted order.
func (c *Catalog) StreamNames() []string { return append([]string(nil), c.names...) }

// Column returns the column statistics for the named column, or nil.
func (s *Stream) Column(name string) *Column {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return &s.Columns[i]
		}
	}
	return nil
}

// SplitSource splits a column's lineage source "stream.col" at its last dot.
// ok is false for a source without one (a computed column).
func SplitSource(src string) (stream, col string, ok bool) {
	i := strings.LastIndexByte(src, '.')
	if i < 0 {
		return "", "", false
	}
	return src[:i], src[i+1:], true
}

// ColumnBySource resolves a lineage source "stream.col" to its registered
// stream and column together with the column's skew statistics. A source
// without a dot, an unknown stream and an unknown column all return
// (nil, nil, ColumnSkew{Fanout: 1}) — the unskewed answer.
func (c *Catalog) ColumnBySource(src string) (*Stream, *Column, ColumnSkew) {
	stream, name, ok := SplitSource(src)
	if st := c.streams[stream]; ok && st != nil {
		for i := range st.Columns {
			if col := &st.Columns[i]; col.Name == name {
				sl := &st.skew[i]
				sl.once.Do(func() { sl.v = skewOf(col.TrueDistinct, col.Skew) })
				return st, col, sl.v
			}
		}
	}
	return nil, nil, ColumnSkew{Fanout: 1}
}

// TrueRows returns the actual number of rows in the stream on the given day.
// It is deterministic in (stream name, day): every stream evolves on its own
// schedule.
func (s *Stream) TrueRows(day int) float64 {
	s.trueRowsMu.Lock()
	if rows, ok := s.trueRowsByDay[day]; ok {
		s.trueRowsMu.Unlock()
		return rows
	}
	s.trueRowsMu.Unlock()
	r := xrand.New(s.seed).Derive("stream", s.Name, "day", fmt.Sprint(day))
	mult := r.LogNormal(0, s.DailySigma)
	growth := math.Pow(s.GrowthPerDay, float64(day))
	rows := s.BaseRows * mult * growth
	if rows < 1 {
		rows = 1
	}
	// Compute outside the lock: a racing duplicate computation yields the
	// identical deterministic value, so last-write-wins is harmless.
	s.trueRowsMu.Lock()
	if s.trueRowsByDay == nil {
		s.trueRowsByDay = make(map[int]float64)
	}
	s.trueRowsByDay[day] = rows
	s.trueRowsMu.Unlock()
	return rows
}

// CorrelationFactor returns the true-selectivity correction factor for a
// conjunction of predicates on columns a and b, or 1 if they are not
// correlated.
func (s *Stream) CorrelationFactor(a, b string) float64 {
	for _, c := range s.Correlations {
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			return c.Factor
		}
	}
	return 1
}

// skewOf computes a column's skew statistics in one pass, in rank order, over
// the relative frequencies f_i = i^-skew of its first n value ranks.
func skewOf(distinct, skew float64) ColumnSkew {
	if skew <= 0 {
		return ColumnSkew{Fanout: 1}
	}
	n := int(distinct)
	if n < 1 {
		n = 1
	}
	if n > MaxRanks {
		n = MaxRanks
	}
	var s1, s2 float64
	for i := 1; i <= n; i++ {
		f := 1 / math.Pow(float64(i), skew)
		s1 += f
		s2 += f * f
	}
	// ratio of (s2/s1^2) to (1/n): how concentrated the mass is.
	r := (s2 / (s1 * s1)) * float64(n)
	if distinct <= 1 || r < 1 {
		r = 1
	}
	return ColumnSkew{Fanout: r, ZipfNorm: s1}
}

// SkewFanout converts a column's Zipf skew into the multiplier by which the
// true join fan-out on that key exceeds the uniform-frequency prediction.
// With skew z over d distinct values, the expected frequency of a uniformly
// drawn *row*'s key is sum(f_i^2)/sum(f_i) rather than n/d; this returns the
// ratio of the two, >= 1. ColumnBySource serves it computed once per column.
func SkewFanout(distinct, skew float64) float64 {
	return skewOf(distinct, skew).Fanout
}
