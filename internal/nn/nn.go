// Package nn implements the lightweight learned model of §7.3: a fully
// connected neural network with one hidden layer, trained with the
// binary-cross-entropy-on-normalized-runtimes loss the paper uses instead of
// mean squared error ("we really only care about choosing the fastest
// configuration").
//
// Only the standard library is used; the math is plain float64 slices.
//
// One model is trained per job group and retrained on a schedule;
// TestTrainAllocationBudget keeps the epoch loop free of allocation. DESIGN.md ("Training kernel") states what may and
// may not be reordered here without changing the trained bits.
package nn

import (
	"encoding/json"
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

	// flat is the one array W1, B1, W2 and B2 are views into, in that order
	// (see slab).
	flat []float64
}

// params is one parameter-shaped array — W1 rows, B1, W2 rows, B2, back to
// back — with the four views into it. Weights, gradients and Adam moments all
// use this layout, so an optimisation step is one loop over flat.
type params struct {
	flat []float64
	w1   [][]float64
	b1   []float64
	w2   [][]float64
	b2   []float64
}

func paramCount(in, hidden, out int) int { return hidden*in + hidden + out*hidden + out }

func newParams(in, hidden, out int) params {
	p := params{
		flat: make([]float64, paramCount(in, hidden, out)),
		w1:   make([][]float64, hidden),
		w2:   make([][]float64, out),
	}
	rest := p.flat
	take := func(n int) []float64 {
		v := rest[:n:n]
		rest = rest[n:]
		return v
	}
	for h := range p.w1 {
		p.w1[h] = take(in)
	}
	p.b1 = take(hidden)
	for o := range p.w2 {
		p.w2[o] = take(hidden)
	}
	p.b2 = take(out)
	return p
}

// adopt makes p the network's parameters.
func (n *Network) adopt(p params) {
	n.W1, n.B1, n.W2, n.B2, n.flat = p.w1, p.b1, p.w2, p.b2, p.flat
}

// New builds a network with He-initialized weights, deterministic in r.
func New(in, hidden, out int, r *xrand.Source) *Network {
	n := &Network{In: in, Hidden: hidden, Out: out}
	n.adopt(newParams(in, hidden, out))
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

// slab returns the contiguous array behind W1, B1, W2 and B2. New lays a
// network out that way; one decoded from JSON, or whose exported views were
// replaced, is repacked here first (same values, same shapes), so Train can
// always update every parameter in one linear loop.
func (n *Network) slab() []float64 {
	if n.packed() {
		return n.flat
	}
	p := newParams(n.In, n.Hidden, n.Out)
	for h, row := range n.W1 {
		copy(p.w1[h], row)
	}
	copy(p.b1, n.B1)
	for o, row := range n.W2 {
		copy(p.w2[o], row)
	}
	copy(p.b2, n.B2)
	n.adopt(p)
	return n.flat
}

// packed reports whether the exported views still alias flat at their
// offsets.
func (n *Network) packed() bool {
	if len(n.flat) != paramCount(n.In, n.Hidden, n.Out) || len(n.W1) != n.Hidden || len(n.W2) != n.Out {
		return false
	}
	off := 0
	at := func(view []float64, want int) bool {
		ok := len(view) == want && (want == 0 || &view[0] == &n.flat[off])
		off += want
		return ok
	}
	for _, row := range n.W1 {
		if !at(row, n.In) {
			return false
		}
	}
	if !at(n.B1, n.Hidden) {
		return false
	}
	for _, row := range n.W2 {
		if !at(row, n.Hidden) {
			return false
		}
	}
	return at(n.B2, n.Out)
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
	for o := range out {
		s := n.B2[o]
		w := n.W2[o]
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
	X      []float64
	Y      []float64
	Mask   []bool
	Weight float64
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
// Everything the epoch loop touches is allocated before it starts and owned
// by this call: the gradient accumulator and Adam moments (laid out like the
// weights), the samples' non-zero lists, one sample's activations and the
// shuffle order.
func (n *Network) Train(samples []Sample, cfg TrainConfig, r *xrand.Source) float64 {
	if len(samples) == 0 {
		return 0
	}
	cfg = cfg.withDefaults()
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	w := n.slab()
	g := newParams(n.In, n.Hidden, n.Out)
	m := make([]float64, len(w))
	v := make([]float64, len(w))
	xs := sparsify(samples)
	act := make([]float64, n.Hidden+2*n.Out)
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
				epochCount += n.accumGrads(xs[si], samples[si], act, g, &epochLoss)
			}
			inv := 1 / float64(end-start)
			step++
			// The bias corrections depend on the step alone. They stay
			// divisors: multiplying by a reciprocal rounds differently.
			c1 := 1 - math.Pow(beta1, float64(step))
			c2 := 1 - math.Pow(beta2, float64(step))
			for i, wi := range w {
				// The batch mean is rounded on its own (the conversion
				// forbids fusing it into the add), then decayed, then the
				// accumulator is cleared for the next batch.
				gi := float64(g.flat[i]*inv) + cfg.L2*wi
				g.flat[i] = 0
				m[i] = beta1*m[i] + (1-beta1)*gi
				v[i] = beta2*v[i] + (1-beta2)*gi*gi
				mh := m[i] / c1
				vh := v[i] / c2
				w[i] = wi - cfg.LR*mh/(math.Sqrt(vh)+eps)
			}
		}
		if epochCount > 0 {
			lastLoss = epochLoss / float64(epochCount)
		}
	}
	return lastLoss
}

// accumGrads runs forward and backprop for one sample (x is s.X's non-zero
// list), adding its un-scaled gradient contributions (of the summed
// per-output BCE loss) into g and its loss terms into *lossAcc, one bce() add
// at a time. act is scratch for Hidden+2*Out values. It returns the number of
// valid (masked-in) output pairs.
func (n *Network) accumGrads(x sparse, s Sample, act []float64, g params, lossAcc *float64) int {
	hidden, out, dz2 := act[:n.Hidden], act[n.Hidden:n.Hidden+n.Out], act[n.Hidden+n.Out:]
	n.forward(x, hidden, out)
	valid := 0
	// dL/dz2 for sigmoid+BCE is (p - y).
	for o, p := range out {
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
		gw := g.w2[o]
		for h, hv := range hidden {
			gw[h] += d * hv
		}
	}
	// Backprop to hidden (ReLU).
	val := x.val[:len(x.idx)]
	for h, hv := range hidden {
		if hv <= 0 {
			continue
		}
		var dh float64
		for o, d := range dz2 {
			dh += d * n.W2[o][h]
		}
		if dh == 0 {
			continue
		}
		g.b1[h] += dh
		gw := g.w1[h]
		for k, i := range x.idx {
			gw[i] += dh * val[k]
		}
	}
	return valid
}

// Gradients computes the analytic gradient of BCELoss over the samples with
// respect to every parameter, normalized like BCELoss itself (by the count of
// valid masked-in output pairs), so a finite-difference probe of BCELoss
// validates these directly. The network is not modified. All-masked sample
// sets return zero gradients.
func (n *Network) Gradients(samples []Sample) (gw1 [][]float64, gb1 []float64, gw2 [][]float64, gb2 []float64) {
	g := newParams(n.In, n.Hidden, n.Out)
	xs := sparsify(samples)
	act := make([]float64, n.Hidden+2*n.Out)
	var loss float64
	valid := 0
	for k, s := range samples {
		valid += n.accumGrads(xs[k], s, act, g, &loss)
	}
	if valid > 0 {
		inv := 1 / float64(valid)
		for i := range g.flat {
			g.flat[i] *= inv
		}
	}
	return g.w1, g.b1, g.w2, g.b2
}

// Marshal serializes the network to JSON (the models are ~small at simulator
// scale; the paper's are ~30 MB).
func (n *Network) Marshal() ([]byte, error) { return json.Marshal(n) }

// ErrShape is wrapped by Unmarshal when a serialized network's dimensions
// disagree with each other.
var ErrShape = errors.New("nn: inconsistent model shape")

// Unmarshal restores a network serialized by Marshal. Every dimension is
// checked here, so a network that loads cannot index out of range at
// inference. (Non-finite weights need no check of their own: JSON has no
// spelling for them, so the decoder has already refused the file.)
func Unmarshal(data []byte) (*Network, error) {
	var n Network
	if err := json.Unmarshal(data, &n); err != nil {
		return nil, fmt.Errorf("nn: unmarshal: %w", err)
	}
	if n.In <= 0 || n.Hidden <= 0 || n.Out <= 0 {
		return nil, fmt.Errorf("nn: unmarshal: dimensions %dx%dx%d: %w", n.In, n.Hidden, n.Out, ErrShape)
	}
	if err := checkLayer(1, n.W1, n.B1, n.Hidden, n.In); err != nil {
		return nil, err
	}
	if err := checkLayer(2, n.W2, n.B2, n.Out, n.Hidden); err != nil {
		return nil, err
	}
	return &n, nil
}

// checkLayer verifies layer l (w<l>, b<l>) is rows x cols with a bias per row.
func checkLayer(l int, w [][]float64, b []float64, rows, cols int) error {
	if len(w) != rows {
		return fmt.Errorf("nn: unmarshal: w%d has %d rows, want %d: %w", l, len(w), rows, ErrShape)
	}
	for i, row := range w {
		if len(row) != cols {
			return fmt.Errorf("nn: unmarshal: w%d row %d has %d weights, want %d: %w", l, i, len(row), cols, ErrShape)
		}
	}
	if len(b) != rows {
		return fmt.Errorf("nn: unmarshal: b%d has %d biases, want %d: %w", l, len(b), rows, ErrShape)
	}
	return nil
}
