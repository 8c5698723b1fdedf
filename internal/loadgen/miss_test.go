package loadgen

import (
	"reflect"
	"testing"

	"steerq/internal/bitvec"
)

// TestMissSignatures pins the miss generator: deterministic, disjoint from
// the known set, and mutually distinct. The known set is the same seed's own
// first 30 draws, so every one of them must be rejected before a miss is
// kept.
func TestMissSignatures(t *testing.T) {
	known := MissSignatures(5, 30, nil)
	m1 := MissSignatures(5, 12, known)
	m2 := MissSignatures(5, 12, known)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("miss signatures not deterministic")
	}
	if len(m1) != 12 {
		t.Fatalf("got %d miss signatures, want 12", len(m1))
	}
	taken := make(map[bitvec.Key]bool)
	for _, v := range known {
		taken[v.Key()] = true
	}
	for i, v := range m1 {
		if taken[v.Key()] {
			t.Fatalf("miss signature %d collides", i)
		}
		taken[v.Key()] = true
	}
}
