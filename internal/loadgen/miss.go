// Package loadgen derives the miss traffic of the serving benchmark:
// signatures guaranteed absent from a bundle, so a request for one resolves
// to the table's default configuration.
package loadgen

import (
	"steerq/internal/bitvec"
	"steerq/internal/xrand"
)

// MissSignatures derives n signatures guaranteed absent from known, by
// seeded rejection sampling. Deterministic for a given (seed, n, known).
func MissSignatures(seed uint64, n int, known []bitvec.Vector) []bitvec.Vector {
	taken := make(map[bitvec.Key]bool, len(known))
	for _, v := range known {
		taken[v.Key()] = true
	}
	r := xrand.New(seed).Derive("loadgen", "miss")
	out := make([]bitvec.Vector, 0, n)
	for len(out) < n {
		var v bitvec.Vector
		for j := 0; j < 8; j++ {
			v.Set(r.Intn(bitvec.Width))
		}
		if taken[v.Key()] {
			continue
		}
		taken[v.Key()] = true
		out = append(out, v)
	}
	return out
}
