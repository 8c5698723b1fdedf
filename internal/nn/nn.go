// Package nn implements the lightweight learned model of §7.3: a fully
// connected neural network with one hidden layer, trained with the
// binary-cross-entropy-on-normalized-runtimes loss the paper uses instead of
// mean squared error ("we really only care about choosing the fastest
// configuration").
//
// Only the standard library is used. Train's two vector operations, the
// fused Adam step and axpy (kernel.go), have a portable Go body and, on
// amd64, an AVX2 body (kernel_amd64.s) that a CPUID check picks once at
// init; every body trains the same bits, and the portable one is the
// reference the tests hold the others to.
//
// One model is trained per job group and retrained on a schedule;
// TestTrainAllocationBudget keeps the epoch loop free of allocation. DESIGN.md ("Training kernel") states what may and
// may not be reordered here without changing the trained bits.
package nn

import (
	"errors"
	"fmt"
	"math"

	"steerq/internal/xrand"
)

// Network is a 1-hidden-layer MLP with ReLU activation and sigmoid outputs.
// Outputs estimate normalized runtimes in [0, 1], one per candidate
// configuration.
type Network struct {
	In, Hidden, Out int

	// W1 [Hidden][In], B1 [Hidden], W2 [Out][Hidden], B2 [Out].
	W1 [][]float64 `json:"w1"`
	B1 []float64   `json:"b1"`
	W2 [][]float64 `json:"w2"`
	B2 []float64   `json:"b2"`
}

// params is one parameter-shaped array — W1 rows, B1, W2 rows, B2, back to
// back — with the four views into it. New lays a network out this way, with
// W1 as [Hidden][In]. Train's working copy, gradient and Adam moments use
// W1ᵀ, [In][Hidden] (newTrainParams), so one input's weights to every hidden
// unit are one contiguous row and an Adam step is one loop over flat.
type params struct {
	flat []float64
	w1   [][]float64
	b1   []float64
	w2   [][]float64
	b2   []float64
}

func newParams(in, hidden, out int) params { return carve(hidden, in, hidden, out) }

func newTrainParams(in, hidden, out int) params { return carve(in, hidden, hidden, out) }

// carve allocates one array and cuts it into a w1Rows x w1Cols W1 block, B1,
// W2 and B2. Rows are capacity-limited views, so an append on one cannot run
// into its neighbour.
func carve(w1Rows, w1Cols, hidden, out int) params {
	p := params{
		flat: make([]float64, w1Rows*w1Cols+hidden+out*hidden+out),
		w1:   make([][]float64, w1Rows),
		w2:   make([][]float64, out),
	}
	rest := p.flat
	take := func(n int) []float64 {
		v := rest[:n:n]
		rest = rest[n:]
		return v
	}
	for r := range p.w1 {
		p.w1[r] = take(w1Cols)
	}
	p.b1 = take(hidden)
	for o := range p.w2 {
		p.w2[o] = take(hidden)
	}
	p.b2 = take(out)
	return p
}

// views is the network's parameters as params, without flat.
func (n *Network) views() params {
	return params{w1: n.W1, b1: n.B1, w2: n.W2, b2: n.B2}
}

// transposeInto copies p's values into q, whose W1 block is p's transposed:
// a network's views into a working copy, or back.
func (p params) transposeInto(q params) {
	for r, row := range p.w1 {
		for c, x := range row {
			q.w1[c][r] = x
		}
	}
	copy(q.b1, p.b1)
	for o, row := range p.w2 {
		copy(q.w2[o], row)
	}
	copy(q.b2, p.b2)
}

// New builds a network with He-initialized weights, deterministic in r.
func New(in, hidden, out int, r *xrand.Source) *Network {
	p := newParams(in, hidden, out)
	n := &Network{In: in, Hidden: hidden, Out: out, W1: p.w1, B1: p.b1, W2: p.w2, B2: p.b2}
	scale1 := math.Sqrt(2 / float64(in))
	scale2 := math.Sqrt(2 / float64(hidden))
	for _, row := range n.W1 {
		for i := range row {
			row[i] = r.Norm(0, scale1)
		}
	}
	for _, row := range n.W2 {
		for h := range row {
			row[h] = r.Norm(0, scale2)
		}
	}
	return n
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// sparse is the non-zero entries of one input vector, ascending by index.
type sparse struct {
	idx []int
	val []float64
}

// add appends the non-zeros of x.
func (s *sparse) add(x []float64) {
	for i, xi := range x {
		if xi != 0 {
			s.idx = append(s.idx, i)
			s.val = append(s.val, xi)
		}
	}
}

// load replaces s with the non-zeros of x, reusing its arrays when they are
// large enough for any vector of x's length.
func (s *sparse) load(x []float64) {
	if cap(s.idx) < len(x) {
		s.idx = make([]int, 0, len(x))
		s.val = make([]float64, 0, len(x))
	}
	s.idx, s.val = s.idx[:0], s.val[:0]
	s.add(x)
}

// sparsify builds every sample's non-zero list once, in two shared arrays.
func sparsify(samples []Sample) []sparse {
	nnz := 0
	for _, s := range samples {
		for _, xi := range s.X {
			if xi != 0 {
				nnz++
			}
		}
	}
	all := sparse{idx: make([]int, 0, nnz), val: make([]float64, 0, nnz)}
	out := make([]sparse, len(samples))
	for k, s := range samples {
		from := len(all.idx)
		all.add(s.X)
		out[k] = sparse{idx: all.idx[from:], val: all.val[from:]}
	}
	return out
}

// forward computes the hidden activations and the outputs for one input.
//
// Only the non-zero inputs are visited. The term a dense sum would add for a
// zero input is w*0 = ±0 for any finite w, and s + ±0 is s bit for bit unless
// s is itself a zero, whose sign no later step can observe (adding a non-zero
// term erases it, and the ReLU test s > 0 is false for both zeros). The
// remaining terms are added in ascending index order, one rounding each,
// exactly as the dense loop adds them — so the result is bit-identical to the
// dense sum for finite weights, and the encoded vectors are ~30 % dense.
func (n *Network) forward(x sparse, hidden, out []float64) {
	val := x.val[:len(x.idx)]
	for h := range hidden {
		s := n.B1[h]
		w := n.W1[h]
		for k, i := range x.idx {
			s += w[i] * val[k]
		}
		if s > 0 {
			hidden[h] = s
		} else {
			hidden[h] = 0
		}
	}
	outputs(n.W2, n.B2, hidden, out)
}

// outputs computes the output layer from the hidden activations.
func outputs(w2 [][]float64, b2, hidden, out []float64) {
	for o := range out {
		s := b2[o]
		w := w2[o]
		for h, hv := range hidden {
			s += w[h] * hv
		}
		out[o] = sigmoid(s)
	}
}

// Eval is the scratch of a forward pass: the input's non-zero list and the
// two activation vectors. The zero value is ready to use; reusing one Eval
// across calls makes inference allocation-free after the first call. An Eval
// must not be shared between goroutines.
type Eval struct {
	in  sparse
	act []float64 // hidden then out
}

// Forward computes the network output for one input vector.
func (n *Network) Forward(x []float64) []float64 {
	var e Eval
	return n.ForwardInto(&e, x)
}

// ForwardInto is Forward with caller-owned scratch. The returned slice
// aliases e and is valid until e is used again.
func (n *Network) ForwardInto(e *Eval, x []float64) []float64 {
	e.in.load(x)
	if cap(e.act) < n.Hidden+n.Out {
		e.act = make([]float64, n.Hidden+n.Out)
	}
	e.act = e.act[:n.Hidden+n.Out]
	out := e.act[n.Hidden:]
	n.forward(e.in, e.act[:n.Hidden], out)
	return out
}

// Sample is one training example: an input vector and per-output normalized
// targets in [0, 1] with a mask of valid outputs (a job group may have fewer
// valid configurations for some jobs, e.g. compile failures).
type Sample struct {
	X    []float64
	Y    []float64
	Mask []bool
}

// BCELoss is the continuous binary cross entropy over masked outputs:
// -(y log p + (1-y) log(1-p)), averaged.
func (n *Network) BCELoss(samples []Sample) float64 {
	var total float64
	var count int
	var e Eval
	for _, s := range samples {
		for o, p := range n.ForwardInto(&e, s.X) {
			if s.Mask != nil && !s.Mask[o] {
				continue
			}
			total += bce(s.Y[o], p)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func bce(y, p float64) float64 {
	const eps = 1e-7
	p = math.Min(math.Max(p, eps), 1-eps)
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}

// TrainConfig parameterizes Adam training. A zero Epochs, BatchSize or LR
// takes its DefaultTrainConfig value, each on its own; a zero L2 means no
// weight decay.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// L2 is weight decay.
	L2 float64
}

// DefaultTrainConfig mirrors the paper's "takes a minute to train" setup at
// simulator scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 200, BatchSize: 16, LR: 1e-3, L2: 1e-5}
}

func (c TrainConfig) withDefaults() TrainConfig {
	d := DefaultTrainConfig()
	if c.Epochs == 0 {
		c.Epochs = d.Epochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.LR == 0 {
		c.LR = d.LR
	}
	return c
}

// Train fits the network with Adam on the BCE loss. Deterministic in r.
// It returns the final training loss.
//
// Train updates a private working copy of the parameters (see trainer),
// read through the exported views on entry and written back through them on
// return. Everything the epoch loop touches is allocated before it starts
// and owned by this call.
func (n *Network) Train(samples []Sample, cfg TrainConfig, r *xrand.Source) float64 {
	return n.train(samples, cfg, r, active)
}

// train is Train on the kernel bodies k.
func (n *Network) train(samples []Sample, cfg TrainConfig, r *xrand.Source, k kernels) float64 {
	if len(samples) == 0 {
		return 0
	}
	cfg = cfg.withDefaults()
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	t := n.newTrainer(samples, k)
	w := t.w.flat
	m := make([]float64, len(w))
	v := make([]float64, len(w))
	c := &adamConsts{l2: cfg.L2, beta1: beta1, omb1: 1 - beta1, beta2: beta2, omb2: 1 - beta2, lr: cfg.LR, eps: eps}
	order := make([]int, len(samples))
	step := 0

	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order = r.PermInto(order, len(samples))
		var epochLoss float64
		var epochCount int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			for _, si := range order[start:end] {
				epochCount += t.accumGrads(si, samples[si], &epochLoss)
			}
			c.inv = 1 / float64(end-start)
			step++
			// The bias corrections depend on the step alone. They stay
			// divisors: multiplying by a reciprocal rounds differently.
			c.c1 = 1 - math.Pow(beta1, float64(step))
			c.c2 = 1 - math.Pow(beta2, float64(step))
			k.adam(w, t.g.flat, m, v, c)
		}
		if epochCount > 0 {
			lastLoss = epochLoss / float64(epochCount)
		}
	}
	t.w.transposeInto(n.views())
	return lastLoss
}

// trainer is the state of one Train or Gradients call, private to it: a
// working copy w of the network's parameters whose W1 block is transposed
// (w.w1[i] holds input i's weight to every hidden unit), the gradient
// accumulator g in the same layout, the samples' non-zero lists, one
// sample's activations, and the kernel bodies to run.
type trainer struct {
	k                    kernels
	w, g                 params
	xs                   []sparse
	hidden, out, dz2, dh []float64
}

func (n *Network) newTrainer(samples []Sample, k kernels) *trainer {
	t := &trainer{
		k:  k,
		w:  newTrainParams(n.In, n.Hidden, n.Out),
		g:  newTrainParams(n.In, n.Hidden, n.Out),
		xs: sparsify(samples),
	}
	n.views().transposeInto(t.w)
	act := make([]float64, 2*(n.Hidden+n.Out))
	t.hidden, act = act[:n.Hidden], act[n.Hidden:]
	t.out, act = act[:n.Out], act[n.Out:]
	t.dz2, t.dh = act[:n.Out], act[n.Out:]
	return t
}

// forward is Network.forward on the working copy. The hidden layer starts
// from B1 and adds W1ᵀ[i]·x_i for each non-zero input i, ascending: every
// hidden unit still adds its own terms to its own sum in the order the
// row-major loop adds them.
func (t *trainer) forward(x sparse) {
	copy(t.hidden, t.w.b1)
	val := x.val[:len(x.idx)]
	for k, i := range x.idx {
		t.k.axpy(t.hidden, t.w.w1[i], val[k])
	}
	for h, s := range t.hidden {
		if !(s > 0) {
			t.hidden[h] = 0
		}
	}
	outputs(t.w.w2, t.w.b2, t.hidden, t.out)
}

// accumGrads runs forward and backprop for sample si (s), adding its
// un-scaled gradient contributions (of the summed per-output BCE loss) into
// t.g and its loss terms into *lossAcc, one bce() add at a time. It returns
// the number of valid (masked-in) output pairs.
func (t *trainer) accumGrads(si int, s Sample, lossAcc *float64) int {
	t.forward(t.xs[si])
	hidden, dz2, dh, g := t.hidden, t.dz2, t.dh, t.g
	valid := 0
	// dL/dz2 for sigmoid+BCE is (p - y).
	for o, p := range t.out {
		dz2[o] = 0
		if s.Mask != nil && !s.Mask[o] {
			continue
		}
		dz2[o] = p - s.Y[o]
		*lossAcc += bce(s.Y[o], p)
		valid++
	}
	for o, d := range dz2 {
		if d == 0 {
			continue
		}
		g.b2[o] += d
		t.k.axpy(g.w2[o], hidden, d)
	}
	// Backprop to hidden (ReLU): dh[h] sums dz2[o]·W2[o][h] in ascending o
	// from +0, and is 0 for an inactive unit, whose updates below then add
	// ±0 to accumulators that are never −0 — no change.
	clear(dh)
	for o, d := range dz2 {
		t.k.axpy(dh, t.w.w2[o], d)
	}
	for h, hv := range hidden {
		if hv <= 0 {
			dh[h] = 0
		}
	}
	for h, d := range dh {
		g.b1[h] += d
	}
	x := t.xs[si]
	val := x.val[:len(x.idx)]
	for k, i := range x.idx {
		t.k.axpy(g.w1[i], dh, val[k])
	}
	return valid
}

// Gradients computes the analytic gradient of BCELoss over the samples with
// respect to every parameter, normalized like BCELoss itself (by the count of
// valid masked-in output pairs), so a finite-difference probe of BCELoss
// validates these directly. The network is not modified. All-masked sample
// sets return zero gradients.
func (n *Network) Gradients(samples []Sample) (gw1 [][]float64, gb1 []float64, gw2 [][]float64, gb2 []float64) {
	t := n.newTrainer(samples, active)
	var loss float64
	valid := 0
	for k, s := range samples {
		valid += t.accumGrads(k, s, &loss)
	}
	if valid > 0 {
		inv := 1 / float64(valid)
		for i := range t.g.flat {
			t.g.flat[i] *= inv
		}
	}
	g := newParams(n.In, n.Hidden, n.Out)
	t.g.transposeInto(g)
	return g.w1, g.b1, g.w2, g.b2
}

// ErrShape is wrapped by Validate when a network's dimensions disagree with
// each other.
var ErrShape = errors.New("nn: inconsistent model shape")

// Validate checks every dimension of a network decoded from JSON, so a
// network that passes cannot index out of range at inference. Non-finite
// weights need no check of their own: JSON has no spelling for them, so the
// decoder has already refused the file.
func (n *Network) Validate() error {
	if n.In <= 0 || n.Hidden <= 0 || n.Out <= 0 {
		return fmt.Errorf("nn: dimensions %dx%dx%d: %w", n.In, n.Hidden, n.Out, ErrShape)
	}
	if err := checkLayer(1, n.W1, n.B1, n.Hidden, n.In); err != nil {
		return err
	}
	return checkLayer(2, n.W2, n.B2, n.Out, n.Hidden)
}

// checkLayer verifies layer l (w<l>, b<l>) is rows x cols with a bias per row.
func checkLayer(l int, w [][]float64, b []float64, rows, cols int) error {
	if len(w) != rows {
		return fmt.Errorf("nn: w%d has %d rows, want %d: %w", l, len(w), rows, ErrShape)
	}
	for i, row := range w {
		if len(row) != cols {
			return fmt.Errorf("nn: w%d row %d has %d weights, want %d: %w", l, i, len(row), cols, ErrShape)
		}
	}
	if len(b) != rows {
		return fmt.Errorf("nn: b%d has %d biases, want %d: %w", l, len(b), rows, ErrShape)
	}
	return nil
}
