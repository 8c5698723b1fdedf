package cost

import (
	"math"
	"testing"

	"steerq/internal/plan"
	"steerq/internal/xrand"
)

// The reference the sorted-slice statistics replaced, kept here as the
// oracle: a map per set, the clamp rules as they stood at commit ec23d7e.
type refNDV = map[plan.ColumnID]float64

func refClamp(m refNDV, rows float64) {
	for k, v := range m {
		if v > rows {
			m[k] = rows
		}
		if m[k] < 1 {
			m[k] = 1
		}
	}
}

// refClamped returns the input itself when no entry needs clamping.
func refClamped(m refNDV, rows float64) (out refNDV, shared bool) {
	dirty := false
	for _, v := range m {
		if v > rows || v < 1 {
			dirty = true
			break
		}
	}
	if !dirty {
		return m, true
	}
	out = make(refNDV, len(m))
	for k, v := range m {
		if v > rows {
			v = rows
		}
		if v < 1 {
			v = 1
		}
		out[k] = v
	}
	return out, false
}

func refMerged(l, r refNDV) refNDV {
	out := make(refNDV, len(l)+len(r))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range r {
		out[k] = v
	}
	return out
}

func refColNDV(m refNDV, rows float64, id plan.ColumnID) float64 {
	if v, ok := m[id]; ok && v > 0 {
		return v
	}
	return rows
}

// sameBits treats NaN as equal to NaN: entries are compared by IEEE bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkNDVs asserts the sorted-unique invariant of s and that it agrees with
// the reference entry for entry.
func checkNDVs(t testing.TB, what string, s NDVs, want refNDV) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i-1].ID >= s[i].ID {
			t.Fatalf("%s: entries %d and %d out of order or repeated: %v", what, i-1, i, s)
		}
	}
	if len(s) != len(want) {
		t.Fatalf("%s: %d entries, reference has %d: %v vs %v", what, len(s), len(want), s, want)
	}
	for _, c := range s {
		if v, ok := want[c.ID]; !ok || !sameBits(v, c.V) {
			t.Fatalf("%s: column %d is %v, reference %v (present %v)", what, c.ID, c.V, v, ok)
		}
	}
}

// write is one (column, value) assignment of a set under construction.
type write struct {
	id plan.ColumnID
	v  float64
}

func build(a *Arena, ws []write) (NDVs, refNDV) {
	s, m := a.take(len(ws)), make(refNDV, len(ws))
	for _, w := range ws {
		s = s.set(w.id, w.v)
		m[w.id] = w.v
	}
	return s, m
}

// TestNDVsMatchMapReference replays seeded random sequences of the five
// operations the estimator performs on column statistics — building a set
// with repeated and unordered columns, merging two (overlapping, disjoint,
// either side empty), clamping a fresh set in place, the copy-on-write clamp,
// and lookups — against the map reference. Every set ever produced is
// re-checked at the end of its sequence, across however many times the arena
// replaced its buffer, and after a Reset the arena serves the next sequence.
func TestNDVsMatchMapReference(t *testing.T) {
	values := []float64{math.NaN(), 0, -3, 0.5, 1, 2, 17, 1e3, 1e9, math.Inf(1)}
	var a Arena
	for seed := uint64(1); seed <= 40; seed++ {
		r := xrand.New(seed)
		a.Reset()
		type pair struct {
			s NDVs
			m refNDV
		}
		pool := []pair{{nil, refNDV{}}}
		pick := func() pair { return pool[r.Intn(len(pool))] }
		value := func() float64 {
			if r.Bool(0.5) {
				return values[r.Intn(len(values))]
			}
			return r.Uniform(0, 5000)
		}
		// rows lands below, inside and above the entries of s.
		rowsFor := func(s NDVs) float64 {
			switch r.Intn(4) {
			case 0:
				return r.Uniform(0, 2)
			case 1:
				return 1e12
			case 2:
				if len(s) > 0 {
					return s[r.Intn(len(s))].V
				}
			}
			return r.Uniform(1, 5000)
		}
		for step := 0; step < 300; step++ {
			var next pair
			switch op := r.Intn(5); op {
			case 0: // build: IDs from a small range so repeats are common
				ws := make([]write, r.Intn(9))
				span := 1 + r.Intn(30)
				for i := range ws {
					ws[i] = write{plan.ColumnID(r.Intn(span)), value()}
				}
				next.s, next.m = build(&a, ws)
			case 1: // merge; the right side wins shared columns
				l, rt := pick(), pick()
				next = pair{merged(&a, l.s, rt.s), refMerged(l.m, rt.m)}
			case 2: // clamp in place, on a private copy as Join does
				in := pick()
				rows := rowsFor(in.s)
				next = pair{merged(&a, in.s, nil), refMerged(in.m, nil)}
				next.s.clamp(rows)
				refClamp(next.m, rows)
			case 3: // copy-on-write clamp: shares iff nothing moved
				in := pick()
				rows := rowsFor(in.s)
				before := append(NDVs(nil), in.s...)
				var shared bool
				next.s = clamped(&a, in.s, rows)
				next.m, shared = refClamped(in.m, rows)
				aliases := len(in.s) > 0 && len(next.s) > 0 && &in.s[0] == &next.s[0]
				if len(in.s) > 0 && aliases != shared {
					t.Fatalf("seed %d step %d: clamped shares its input: %v, reference: %v", seed, step, aliases, shared)
				}
				for i := range before {
					if before[i].ID != in.s[i].ID || !sameBits(before[i].V, in.s[i].V) {
						t.Fatalf("seed %d step %d: clamped wrote to its input", seed, step)
					}
				}
			case 4: // lookups, present and absent, fall back like the map's
				in := pick()
				rows := rowsFor(in.s)
				for id := plan.ColumnID(-1); id < 32; id++ {
					got, want := Props{Rows: rows, NDV: in.s}.ColNDV(id), refColNDV(in.m, rows, id)
					if !sameBits(got, want) {
						t.Fatalf("seed %d step %d: ColNDV(%d) = %v, reference %v", seed, step, id, got, want)
					}
				}
				continue
			}
			checkNDVs(t, "fresh", next.s, next.m)
			pool = append(pool, next)
		}
		for _, p := range pool {
			checkNDVs(t, "held", p.s, p.m)
		}
	}
}

// FuzzNDVsMerge builds two sets from fuzzed write sequences, merges them and
// clamps the result both ways, against the map reference. Each write is three
// bytes: column, then a 16-bit value whose top codes select the odd floats.
func FuzzNDVsMerge(f *testing.F) {
	f.Add([]byte{1, 0, 10, 2, 0, 20, 3, 0, 30}, []byte{2, 0, 99, 4, 0, 40}, 25.0) // overlapping
	f.Add([]byte{1, 0, 10, 3, 0, 30}, []byte{2, 0, 20, 4, 0, 40}, 15.0)           // disjoint, interleaved
	f.Add([]byte{}, []byte{9, 0, 1, 7, 0, 2, 9, 0, 3}, 2.0)                       // left empty, repeats
	f.Add([]byte{5, 255, 255, 5, 255, 254, 6, 255, 253}, []byte{}, 0.5)           // right empty, NaN and 0
	f.Add([]byte{}, []byte{}, 1.0)                                                // both empty
	f.Add([]byte{8, 1, 0, 7, 1, 0, 6, 1, 0}, []byte{6, 2, 0, 7, 2, 0, 8, 2, 0}, 1e9)
	f.Fuzz(func(t *testing.T, lb, rb []byte, rows float64) {
		decode := func(b []byte) []write {
			ws := make([]write, 0, len(b)/3)
			for ; len(b) >= 3; b = b[3:] {
				v := float64(uint16(b[1])<<8 | uint16(b[2]))
				switch v {
				case 65535:
					v = math.NaN()
				case 65534:
					v = 0
				case 65533:
					v = -1
				case 65532:
					v = math.Inf(1)
				}
				ws = append(ws, write{plan.ColumnID(b[0]), v})
			}
			return ws
		}
		var a Arena
		l, lm := build(&a, decode(lb))
		r, rm := build(&a, decode(rb))
		checkNDVs(t, "left", l, lm)
		checkNDVs(t, "right", r, rm)
		m, mm := merged(&a, l, r), refMerged(lm, rm)
		checkNDVs(t, "merged", m, mm)
		cow := clamped(&a, m, rows)
		cm, _ := refClamped(mm, rows)
		checkNDVs(t, "clamped", cow, cm)
		checkNDVs(t, "merged after clamped", m, mm)
		m.clamp(rows)
		refClamp(mm, rows)
		checkNDVs(t, "clamp", m, mm)
		checkNDVs(t, "left after merge", l, lm)
		checkNDVs(t, "right after merge", r, rm)
	})
}

// TestArenaKeepsEarlierSetsValid: sets carved before the arena replaces its
// buffer keep their contents, and a Reset arena hands the same memory out
// again without allocating.
func TestArenaKeepsEarlierSetsValid(t *testing.T) {
	var a Arena
	var held []NDVs
	for i := 0; i < 40; i++ { // 40 × 10 entries: several buffer replacements
		s := a.take(10)
		for j := 0; j < 10; j++ {
			s = s.set(plan.ColumnID(j), float64(i*100+j))
		}
		held = append(held, s)
	}
	for i, s := range held {
		for j, c := range s {
			if c.ID != plan.ColumnID(j) || c.V != float64(i*100+j) {
				t.Fatalf("set %d entry %d is %+v after later growth", i, j, c)
			}
		}
		if cap(s) != 10 {
			t.Fatalf("set %d has capacity %d: an append could reach a neighbour", i, cap(s))
		}
	}
	a.Reset()
	n := testing.AllocsPerRun(20, func() {
		a.Reset()
		for i := 0; i < 20; i++ {
			a.take(10)
		}
	})
	if n != 0 {
		t.Fatalf("a warm arena allocated %v times per cycle", n)
	}
}
