package nn

import "math"

// adamConsts is everything one Adam step applies to every parameter. The
// 1-β factors are fields, not expressions a kernel body evaluates, so every
// body multiplies by the same Go-rounded constants.
type adamConsts struct {
	inv         float64 // 1 / batch size
	l2          float64
	beta1, omb1 float64 // β1 and 1-β1
	beta2, omb2 float64 // β2 and 1-β2
	c1, c2      float64 // bias corrections 1-β1^t and 1-β2^t
	lr, eps     float64
}

// kernels is a set of bodies for the training loop's two vector operations.
// Every body performs, on each element, the floating-point operations of the
// portable one in the same order, so all sets train the same bits (DESIGN.md,
// "Training kernel").
type kernels struct {
	name string
	// adam applies one step to every parameter: it folds the batch
	// gradient in g (then clears it) into the moments m and v and updates w.
	adam func(w, g, m, v []float64, c *adamConsts)
	// axpy adds a*x[j] to y[j] for every j < len(y).
	axpy func(y, x []float64, a float64)
}

// portable is the reference set: plain Go, on every architecture.
var portable = kernels{name: "portable", adam: adamGo, axpy: axpyGo}

// active is the set Train runs. It is chosen once, at init, from what the
// CPU reports (kernel_amd64.go), and never changes afterwards.
var active = portable

func adamGo(w, g, m, v []float64, c *adamConsts) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, wi := range w {
		// The batch mean is rounded on its own (the conversion forbids
		// fusing it into the add), then decayed, then the accumulator is
		// cleared for the next batch.
		gi := float64(g[i]*c.inv) + c.l2*wi
		g[i] = 0
		m[i] = c.beta1*m[i] + c.omb1*gi
		v[i] = c.beta2*v[i] + c.omb2*gi*gi
		mh := m[i] / c.c1
		vh := v[i] / c.c2
		w[i] = wi - c.lr*mh/(math.Sqrt(vh)+c.eps)
	}
}

func axpyGo(y, x []float64, a float64) {
	x = x[:len(y)]
	for j, xj := range x {
		y[j] += a * xj
	}
}
