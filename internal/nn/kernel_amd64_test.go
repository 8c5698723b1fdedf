package nn

import "testing"

// TestAVX2BodiesChosen: the CPU check picks the AVX2 bodies exactly when the
// CPU and the operating system support them, so on such a machine the tests
// comparing active with portable compare two different bodies.
func TestAVX2BodiesChosen(t *testing.T) {
	if want := hasAVX2(); (active.name == "avx2") != want {
		t.Fatalf("active kernel bodies %q, CPU reports AVX2 usable: %v", active.name, want)
	}
}
