// Package bitvec provides fixed-width bit vectors used throughout steerq to
// represent rule configurations and rule signatures.
//
// A rule configuration is a bit vector with one bit per optimizer rule: bit i
// set means rule i is enabled for compilation. A rule signature is a bit
// vector with bit i set when rule i directly contributed to the final query
// plan. Both concepts come from Definitions 3.1 and 3.2 of the paper.
//
// Vectors are value types backed by a small fixed array so they can be used
// as map keys after conversion with Key, hashed cheaply, and copied without
// aliasing bugs.
//
// Signatures are hashed and compared once per candidate configuration.
package bitvec

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"
)

// Width is the number of bits in every Vector. The SCOPE optimizer modeled by
// this repository has 256 rules, matching the paper's rule census (Table 2).
const Width = 256

// words is the number of 64-bit words backing a Vector.
const words = Width / 64

// Vector is a fixed-width bit vector of Width bits.
//
// The zero value is the empty vector (all bits clear).
type Vector struct {
	w [words]uint64
}

// Key is a comparable, compact form of a Vector suitable for use as a map
// key. Two Vectors are equal iff their Keys are equal.
type Key [words]uint64

// New returns a Vector with the given bit positions set.
// It panics if any position is out of range, mirroring slice indexing.
func New(positions ...int) Vector {
	var v Vector
	for _, p := range positions {
		v.Set(p)
	}
	return v
}

// AllSet returns a Vector with the first n bits set.
// It panics if n is negative or greater than Width.
func AllSet(n int) Vector {
	if n < 0 || n > Width {
		// steerq:allow-panic — documented slice-indexing semantics; the tests assert it.
		panic(fmt.Sprintf("bitvec: AllSet(%d) out of range [0,%d]", n, Width))
	}
	var v Vector
	for i := 0; i < n; i++ {
		v.Set(i)
	}
	return v
}

func check(i int) {
	if i < 0 || i >= Width {
		// steerq:allow-panic — out-of-range bit access is a caller bug, like s[i] past len(s).
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, Width))
	}
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	check(i)
	v.w[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	check(i)
	v.w[i/64] &^= 1 << (uint(i) % 64)
}

// Assign sets bit i to on.
func (v *Vector) Assign(i int, on bool) {
	if on {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v Vector) Get(i int) bool {
	check(i)
	return v.w[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (v Vector) Count() int {
	n := 0
	for _, w := range v.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether no bits are set.
func (v Vector) IsEmpty() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o have identical bits.
func (v Vector) Equal(o Vector) bool { return v.w == o.w }

// And returns the bitwise intersection of v and o.
func (v Vector) And(o Vector) Vector {
	var r Vector
	for i := range v.w {
		r.w[i] = v.w[i] & o.w[i]
	}
	return r
}

// Or returns the bitwise union of v and o.
func (v Vector) Or(o Vector) Vector {
	var r Vector
	for i := range v.w {
		r.w[i] = v.w[i] | o.w[i]
	}
	return r
}

// AndNot returns the bits set in v but not in o (set difference).
func (v Vector) AndNot(o Vector) Vector {
	var r Vector
	for i := range v.w {
		r.w[i] = v.w[i] &^ o.w[i]
	}
	return r
}

// Xor returns the bits set in exactly one of v and o (symmetric difference).
// RuleDiff (Definition 6.1) is computed from the Xor of two signatures.
func (v Vector) Xor(o Vector) Vector {
	var r Vector
	for i := range v.w {
		r.w[i] = v.w[i] ^ o.w[i]
	}
	return r
}

// Contains reports whether every bit set in o is also set in v.
func (v Vector) Contains(o Vector) bool {
	for i := range v.w {
		if o.w[i]&^v.w[i] != 0 {
			return false
		}
	}
	return true
}

// Ones returns the positions of all set bits in ascending order.
func (v Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Key returns the comparable map-key form of v.
func (v Vector) Key() Key { return Key(v.w) }

// FromKey reconstructs the Vector encoded by k.
func FromKey(k Key) Vector { return Vector{w: [words]uint64(k)} }

// Hash returns a 64-bit FNV-1a hash of the vector contents.
func (v Vector) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range v.w {
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Hex returns a fixed-length lowercase hex encoding of the vector,
// most-significant word first. Suitable as a stable textual identifier for a
// rule signature (used to name job groups).
func (v Vector) Hex() string {
	buf := make([]byte, 8*words)
	for wi := 0; wi < words; wi++ {
		w := v.w[words-1-wi]
		for i := 0; i < 8; i++ {
			buf[wi*8+i] = byte(w >> (8 * uint(7-i)))
		}
	}
	return hex.EncodeToString(buf)
}

// Compare orders vectors as their Hex strings order: words from the most
// significant down, each compared as a uint64. It returns -1, 0 or +1.
func (v Vector) Compare(o Vector) int {
	for wi := words - 1; wi >= 0; wi-- {
		if c := cmp.Compare(v.w[wi], o.w[wi]); c != 0 {
			return c
		}
	}
	return 0
}

// ParseHex parses a string previously produced by Hex.
func ParseHex(s string) (Vector, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Vector{}, fmt.Errorf("bitvec: parse hex: %w", err)
	}
	if len(raw) != 8*words {
		return Vector{}, fmt.Errorf("bitvec: parse hex: want %d bytes, got %d", 8*words, len(raw))
	}
	var v Vector
	for wi := 0; wi < words; wi++ {
		var w uint64
		for i := 0; i < 8; i++ {
			w = w<<8 | uint64(raw[wi*8+i])
		}
		v.w[words-1-wi] = w
	}
	return v, nil
}

// String renders the vector as "{3, 17, 42}" listing the set bit positions.
func (v Vector) String() string {
	ones := v.Ones()
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range ones {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", p)
	}
	b.WriteByte('}')
	return b.String()
}
