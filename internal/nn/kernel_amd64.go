package nn

func init() {
	if hasAVX2() {
		active = kernels{name: "avx2", adam: adamAVX2, axpy: axpyAVX2}
	}
}

// hasAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches.
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmOS   = 0b110   // XCR0: SSE and AVX state enabled
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID for leaf eaxArg, sub-leaf ecxArg (kernel_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register-state components the operating system
// saves (kernel_amd64.s).
func xgetbv() (eax, edx uint32)

// adamAVX2 runs the AVX2 body over the longest prefix whose length is a
// multiple of four and adamGo over the rest.
func adamAVX2(w, g, m, v []float64, c *adamConsts) {
	n := len(w) &^ 3
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	if n > 0 {
		adam4(w[:n], g[:n], m[:n], v[:n], c)
	}
	adamGo(w[n:], g[n:], m[n:], v[n:], c)
}

// axpyAVX2 is adamAVX2's split for axpy.
func axpyAVX2(y, x []float64, a float64) {
	n := len(y) &^ 3
	x = x[:len(y)]
	if n > 0 {
		axpy4(y[:n], x[:n], a)
	}
	axpyGo(y[n:], x[n:], a)
}

// adam4 and axpy4 are the AVX2 bodies (kernel_amd64.s). Every slice has the
// length of the first, a multiple of four; each 4-wide instruction performs
// on each lane the operation adamGo and axpyGo perform on one element.
//
//go:noescape
func adam4(w, g, m, v []float64, c *adamConsts)

//go:noescape
func axpy4(y, x []float64, a float64)
