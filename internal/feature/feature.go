// Package feature builds the model input vectors of §7.2. A SCOPE job is a
// large DAG with opaque user code, so the paper featurizes three groups of
// signals rather than the graph itself:
//
//  1. job-level features — estimated input size, a hash of the inputs, a
//     hash of the query template;
//  2. rule-configuration features — per candidate configuration, the
//     estimated plan cost and the RuleDiff bit vector against the default;
//  3. query-graph features — one slot per operator type with its occurrence
//     count and average estimated cost and cardinality.
//
// Continuous features are min-max normalized to [0, 1]; low-cardinality
// categoricals are one-hot encoded; large-alphabet categoricals (input and
// template hashes) are deterministically hashed into 50 bins.
//
// Encode runs once per example per training run and once per served choice.
package feature

import (
	"encoding/json"
	"fmt"
	"math"

	"steerq/internal/bitvec"
	"steerq/internal/plan"
)

// HashBins is the number of buckets used for large-alphabet categorical
// features (§7.2 uses 50).
const HashBins = 50

// OpStat summarizes one operator type's occurrences in the default plan.
type OpStat struct {
	Count   int
	AvgCost float64
	AvgRows float64
}

// JobFeatures carries everything the encoder needs about one (job, candidate
// set) pair.
type JobFeatures struct {
	// InputBytes is the estimated total input size.
	InputBytes float64
	// InputsHash and TemplateHash identify inputs and template.
	InputsHash   uint64
	TemplateHash uint64
	// OpStats indexes operator statistics by physical operator.
	OpStats map[plan.PhysOp]OpStat
	// EstCosts[k] is the estimated plan cost under candidate k.
	EstCosts []float64
	// Diffs[k] is the RuleDiff bit vector of candidate k vs the default.
	Diffs []bitvec.Vector
	// Valid[k] marks candidates that compiled.
	Valid []bool
}

// Encoder turns JobFeatures into fixed-width vectors. Build it with Fit over
// the training set so min-max ranges and the relevant rule-diff bits are
// learned from training data only.
type Encoder struct {
	K       int           `json:"k"`        // candidate configurations per job group
	Ops     []plan.PhysOp `json:"ops"`      // operator slots, fixed order
	DiffIDs []int         `json:"diff_ids"` // rule IDs observed in any training diff
	// Ranges holds the min-max normalization bounds per feature key,
	// exported so trained encoders serialize with their models. Fit and
	// UnmarshalJSON read it once into norms; Encode never touches the map.
	Ranges map[string][2]float64 `json:"ranges"`

	// norms is Ranges by slot (see rangeKeys). A key Ranges lacks is {0, 0},
	// which normalizes everything to 0 exactly as a missing key does.
	norms [][2]float64
}

// Slots of the continuous features in Encoder.norms: two fixed ones, then
// count, cost and rows of each operator in Ops order.
const (
	slotInputBytes = iota
	slotEstCost
	slotOps
)

// trackedOps is the fixed operator-slot order.
var trackedOps = []plan.PhysOp{
	plan.PhysExtract, plan.PhysRangeScan, plan.PhysFilter, plan.PhysCompute,
	plan.PhysHashJoin, plan.PhysHashJoinAlt, plan.PhysMergeJoin, plan.PhysLoopJoin,
	plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysPartialHashAgg, plan.PhysFinalHashAgg,
	plan.PhysUnionMerge, plan.PhysVirtualDataset, plan.PhysProcessImpl, plan.PhysReduceImpl,
	plan.PhysLocalTop, plan.PhysGlobalTop, plan.PhysSort, plan.PhysExchange,
	plan.PhysOutputImpl,
}

// rangeKeys returns each slot's key in Ranges.
func rangeKeys(ops []plan.PhysOp) []string {
	keys := make([]string, 0, slotOps+3*len(ops))
	keys = append(keys, "inputBytes", "estCost")
	for _, op := range ops {
		name := op.String()
		keys = append(keys, "count:"+name, "cost:"+name, "rows:"+name)
	}
	return keys
}

// Fit learns normalization ranges and the diff vocabulary from training
// examples.
func Fit(train []JobFeatures, k int) *Encoder {
	e := &Encoder{K: k, Ops: trackedOps, Ranges: make(map[string][2]float64)}
	keys := rangeKeys(e.Ops)
	norms := make([][2]float64, len(keys))
	seen := make([]bool, len(keys))
	upd := func(slot int, v float64) {
		r := &norms[slot]
		if !seen[slot] {
			seen[slot] = true
			*r = [2]float64{v, v}
			return
		}
		if v < r[0] {
			r[0] = v
		}
		if v > r[1] {
			r[1] = v
		}
	}
	var diffs bitvec.Vector
	for _, f := range train {
		upd(slotInputBytes, logScale(f.InputBytes))
		for oi, op := range e.Ops {
			s := f.OpStats[op]
			upd(slotOps+3*oi, float64(s.Count))
			upd(slotOps+3*oi+1, logScale(s.AvgCost))
			upd(slotOps+3*oi+2, logScale(s.AvgRows))
		}
		for ki := 0; ki < k && ki < len(f.EstCosts); ki++ {
			upd(slotEstCost, logScale(f.EstCosts[ki]))
			diffs = diffs.Or(f.Diffs[ki])
		}
	}
	for slot, key := range keys {
		if seen[slot] {
			e.Ranges[key] = norms[slot]
		}
	}
	if !diffs.IsEmpty() { // stays nil otherwise, as it serializes
		e.DiffIDs = diffs.Ones()
	}
	e.norms = norms
	return e
}

// UnmarshalJSON decodes a serialized encoder and resolves its ranges, so a
// loaded encoder encodes exactly like the fitted one it was saved from.
func (e *Encoder) UnmarshalJSON(data []byte) error {
	type wire Encoder // the same fields without this method
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("feature: decode encoder: %w", err)
	}
	if w.K < 0 {
		return fmt.Errorf("feature: decode encoder: k = %d", w.K)
	}
	for _, id := range w.DiffIDs {
		if id < 0 || id >= bitvec.Width {
			return fmt.Errorf("feature: decode encoder: diff id %d outside [0, %d)", id, bitvec.Width)
		}
	}
	*e = Encoder(w)
	keys := rangeKeys(e.Ops)
	e.norms = make([][2]float64, len(keys))
	for slot, key := range keys {
		e.norms[slot] = e.Ranges[key]
	}
	return nil
}

func logScale(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log1p(v)
}

// norm min-max normalizes v into [0, 1] by the slot's fitted range.
func (e *Encoder) norm(slot int, v float64) float64 {
	r := e.norms[slot]
	if r[1] <= r[0] {
		return 0
	}
	x := (v - r[0]) / (r[1] - r[0])
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Width returns the encoded vector length.
func (e *Encoder) Width() int {
	return 1 + // input bytes
		2*HashBins + // inputs hash, template hash
		3*len(e.Ops) + // per-op count/cost/rows
		e.K*(1+1+len(e.DiffIDs)) // per-candidate: valid, est cost, diff bits
}

// Encode builds the input vector for one job.
func (e *Encoder) Encode(f JobFeatures) []float64 { return e.EncodeInto(nil, f) }

// EncodeInto is Encode into a caller-owned buffer: dst is grown only when its
// capacity is short of Width, overwritten, and returned.
func (e *Encoder) EncodeInto(dst []float64, f JobFeatures) []float64 {
	width := e.Width()
	if cap(dst) < width {
		dst = make([]float64, width)
	}
	x := dst[:width]
	clear(x)

	x[0] = e.norm(slotInputBytes, logScale(f.InputBytes))
	x[1+int(f.InputsHash%HashBins)] = 1
	x[1+HashBins+int(f.TemplateHash%HashBins)] = 1

	at := 1 + 2*HashBins
	for oi, op := range e.Ops {
		s := f.OpStats[op]
		x[at] = e.norm(slotOps+3*oi, float64(s.Count))
		x[at+1] = e.norm(slotOps+3*oi+1, logScale(s.AvgCost))
		x[at+2] = e.norm(slotOps+3*oi+2, logScale(s.AvgRows))
		at += 3
	}

	for ki := 0; ki < e.K; ki++ {
		arm := x[at : at+2+len(e.DiffIDs)]
		at += len(arm)
		if ki >= len(f.EstCosts) || (f.Valid != nil && !f.Valid[ki]) {
			continue // an arm that did not compile encodes as all zeros
		}
		arm[0] = 1
		arm[1] = e.norm(slotEstCost, logScale(f.EstCosts[ki]))
		for bi, id := range e.DiffIDs {
			if f.Diffs[ki].Get(id) {
				arm[2+bi] = 1
			}
		}
	}
	return x
}

// PlanOpStats extracts the per-operator statistics of a physical plan.
func PlanOpStats(p *plan.PhysNode) map[plan.PhysOp]OpStat {
	type acc struct {
		n          int
		cost, rows float64
	}
	accs := make(map[plan.PhysOp]*acc)
	p.Walk(func(n *plan.PhysNode) {
		a := accs[n.Op]
		if a == nil {
			a = &acc{}
			accs[n.Op] = a
		}
		a.n++
		a.cost += n.EstCost
		a.rows += n.EstRows
	})
	out := make(map[plan.PhysOp]OpStat, len(accs))
	for op, a := range accs {
		out[op] = OpStat{
			Count:   a.n,
			AvgCost: a.cost / float64(a.n),
			AvgRows: a.rows / float64(a.n),
		}
	}
	return out
}
