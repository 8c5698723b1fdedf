package bitvec

import (
	"reflect"
	"strings"
	"testing"

	"steerq/internal/xrand"
)

// randomVector draws a vector from an xrand stream: like all stochastic code
// in this module, the tests derive their randomness from seeded xrand
// streams rather than math/rand (enforced by the randcheck analyzer).
func randomVector(r *xrand.Source) Vector {
	var v Vector
	n := r.Intn(Width)
	for i := 0; i < n; i++ {
		v.Set(r.Intn(Width))
	}
	return v
}

// checkProp runs a property over pairs of seeded random vectors.
func checkProp(t *testing.T, iterations int, prop func(a, b Vector) bool) {
	t.Helper()
	r := xrand.New(7).Derive("bitvec", t.Name())
	for i := 0; i < iterations; i++ {
		a, b := randomVector(r), randomVector(r)
		if !prop(a, b) {
			t.Fatalf("property failed on iteration %d:\na = %v\nb = %v", i, a, b)
		}
	}
}

func TestSetClearGet(t *testing.T) {
	var v Vector
	for _, i := range []int{0, 1, 63, 64, 127, 128, 255} {
		if v.Get(i) {
			t.Errorf("bit %d set in zero vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestAssign(t *testing.T) {
	var v Vector
	v.Assign(42, true)
	if !v.Get(42) {
		t.Fatal("Assign(42, true) did not set")
	}
	v.Assign(42, false)
	if v.Get(42) {
		t.Fatal("Assign(42, false) did not clear")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, Width, Width + 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			var v Vector
			v.Get(i)
		}()
	}
}

func TestAllSet(t *testing.T) {
	v := AllSet(100)
	if v.Count() != 100 {
		t.Fatalf("AllSet(100).Count() = %d", v.Count())
	}
	if !v.Get(99) || v.Get(100) {
		t.Fatal("AllSet boundary wrong")
	}
	if AllSet(0).Count() != 0 {
		t.Fatal("AllSet(0) not empty")
	}
	if AllSet(Width).Count() != Width {
		t.Fatal("AllSet(Width) incomplete")
	}
}

func TestOnes(t *testing.T) {
	v := New(3, 64, 200, 5)
	want := []int{3, 5, 64, 200}
	if got := v.Ones(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Ones() = %v, want %v", got, want)
	}
}

func TestCountMatchesOnes(t *testing.T) {
	checkProp(t, 100, func(v, _ Vector) bool { return v.Count() == len(v.Ones()) })
}

func TestAndNotDefinition(t *testing.T) {
	checkProp(t, 50, func(a, b Vector) bool {
		d := a.AndNot(b)
		for i := 0; i < Width; i++ {
			if d.Get(i) != (a.Get(i) && !b.Get(i)) {
				return false
			}
		}
		return true
	})
}

func TestXorSymmetricDifference(t *testing.T) {
	checkProp(t, 100, func(a, b Vector) bool {
		x := a.Xor(b)
		return x.Equal(a.AndNot(b).Or(b.AndNot(a)))
	})
}

func TestUnionIntersectionLaws(t *testing.T) {
	checkProp(t, 100, func(a, b Vector) bool {
		u := a.Or(b)
		i := a.And(b)
		// |A| + |B| == |A∪B| + |A∩B|
		if a.Count()+b.Count() != u.Count()+i.Count() {
			return false
		}
		// A ⊆ A∪B and A∩B ⊆ A
		return u.Contains(a) && u.Contains(b) && a.Contains(i) && b.Contains(i)
	})
}

func TestContainsReflexive(t *testing.T) {
	checkProp(t, 100, func(a, _ Vector) bool { return a.Contains(a) && a.Contains(Vector{}) })
}

func TestHexRoundTrip(t *testing.T) {
	checkProp(t, 100, func(a, _ Vector) bool {
		got, err := ParseHex(a.Hex())
		return err == nil && got.Equal(a)
	})
}

// TestCompareMatchesHexOrder holds Compare to the order of the Hex strings
// it replaces as a sort key: on random pairs, on a vector against itself, and
// on pairs that differ only in the lowest word, where the higher words tie.
func TestCompareMatchesHexOrder(t *testing.T) {
	agrees := func(a, b Vector) bool { return a.Compare(b) == strings.Compare(a.Hex(), b.Hex()) }
	checkProp(t, 200, agrees)
	checkProp(t, 100, func(a, _ Vector) bool { return agrees(a, a) })
	checkProp(t, 200, func(a, b Vector) bool {
		lo := a
		lo.w[0] = b.w[0]
		return agrees(a, lo) && agrees(lo, a)
	})
}

func TestParseHexErrors(t *testing.T) {
	if _, err := ParseHex("zz"); err == nil {
		t.Error("ParseHex accepted non-hex input")
	}
	if _, err := ParseHex("abcd"); err == nil {
		t.Error("ParseHex accepted short input")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	checkProp(t, 100, func(a, _ Vector) bool { return FromKey(a.Key()).Equal(a) })
}

func TestKeyEqualityMatchesEqual(t *testing.T) {
	checkProp(t, 100, func(a, b Vector) bool { return (a.Key() == b.Key()) == a.Equal(b) })
	// Pairs drawn independently rarely collide; also check the equal case.
	checkProp(t, 100, func(a, _ Vector) bool { return a.Key() == a.Key() })
}

func TestHashConsistent(t *testing.T) {
	a := New(1, 2, 3)
	b := New(3, 2, 1)
	if a.Hash() != b.Hash() {
		t.Fatal("equal vectors hash differently")
	}
	if a.Hash() == New(1, 2, 4).Hash() {
		t.Log("hash collision between close vectors (allowed but unexpected)")
	}
}

func TestIsEmpty(t *testing.T) {
	var v Vector
	if !v.IsEmpty() {
		t.Fatal("zero vector not empty")
	}
	v.Set(255)
	if v.IsEmpty() {
		t.Fatal("vector with bit 255 reported empty")
	}
}

func TestString(t *testing.T) {
	if got := New(3, 17).String(); got != "{3, 17}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Vector{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}
