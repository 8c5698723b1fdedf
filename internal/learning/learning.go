// Package learning implements §7 of the paper: choosing a rule configuration
// for an unseen job with a supervised model, trained per rule-signature job
// group.
//
// For each job group the pipeline (internal/steering) is run on a handful of
// base jobs; the fastest discovered configurations become the group's K
// candidate arms (the default configuration is always arm 0). Jobs sampled
// from the group across days are executed under every arm to build the
// dataset; a one-hidden-layer network (internal/nn) learns to map job
// features (internal/feature) to normalized per-arm runtimes, and at
// inference the arm with the smallest prediction wins.
package learning

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"steerq/internal/abtest"
	"steerq/internal/bitvec"
	"steerq/internal/feature"
	"steerq/internal/nn"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// Example is one job with its per-arm features and measured runtimes.
type Example struct {
	Job   *workload.Job
	Feats feature.JobFeatures
	// Runtimes[k] is the measured runtime under arm k; negative means the
	// job did not compile under that arm.
	Runtimes []float64
}

// Dataset is the training corpus of one job group.
type Dataset struct {
	Signature bitvec.Vector
	// Configs are the K arms; Configs[0] is the default configuration.
	Configs  []bitvec.Vector
	Examples []Example
}

// CandidateArms runs the discovery pipeline on up to nBase jobs of a group
// and returns the group's arms: the default configuration plus the fastest
// discovered configurations of each base job (3 per base, deduplicated),
// capped at maxArms total (§7.1).
func CandidateArms(p *steering.Pipeline, group []*workload.Job, nBase, maxArms int) ([]bitvec.Vector, error) {
	h := p.Harness
	arms := []bitvec.Vector{h.Opt.Rules.DefaultConfig()}
	seen := map[bitvec.Key]bool{arms[0].Key(): true}
	for bi := 0; bi < nBase && bi < len(group); bi++ {
		a, err := p.Analyze(group[bi])
		if err != nil {
			return nil, fmt.Errorf("learning: base job %s: %w", group[bi].ID, err)
		}
		type scored struct {
			cfg bitvec.Vector
			rt  float64
		}
		var ok []scored
		for _, t := range a.Trials {
			if t.Err != nil {
				continue
			}
			ok = append(ok, scored{t.Config, t.Metrics.RuntimeSec})
		}
		sort.Slice(ok, func(i, j int) bool { return ok[i].rt < ok[j].rt })
		for i := 0; i < 3 && i < len(ok); i++ {
			k := ok[i].cfg.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			arms = append(arms, ok[i].cfg)
		}
	}
	if len(arms) > maxArms {
		arms = arms[:maxArms]
	}
	return arms, nil
}

// Collect executes every arm for every job and assembles the dataset.
func Collect(h *abtest.Harness, sig bitvec.Vector, jobs []*workload.Job, arms []bitvec.Vector) *Dataset {
	ds := &Dataset{Signature: sig, Configs: arms}
	ctx := context.Background()
	for _, j := range jobs {
		ex := Example{Job: j, Runtimes: make([]float64, len(arms))}
		ex.Feats = feature.JobFeatures{
			InputsHash:   j.InputsHash,
			TemplateHash: j.TemplateHash,
			EstCosts:     make([]float64, len(arms)),
			Diffs:        make([]bitvec.Vector, len(arms)),
			Valid:        make([]bool, len(arms)),
		}
		for _, in := range j.Root.Inputs() {
			if st := h.Cat.Stream(in); st != nil {
				ex.Feats.InputBytes += st.BaseRows * st.BytesPerRow
			}
		}
		var defaultSig bitvec.Vector
		for k, cfg := range arms {
			tag := fmt.Sprintf("%s/arm%d", j.ID, k)
			// The trial in its two halves: arm 0 also reads the compiled plan.
			var t abtest.Trial
			res, _, err := h.CompileCtx(ctx, j.Root, cfg, tag, nil)
			if err == nil {
				t = h.ExecCtx(ctx, res, j.Day, tag, nil)
				err = t.Err
			}
			if err != nil {
				ex.Runtimes[k] = -1
				continue
			}
			if k == 0 {
				defaultSig = t.Signature
				// Query-graph features come from the default plan.
				ex.Feats.OpStats = feature.PlanOpStats(res.Plan)
			}
			ex.Feats.Valid[k] = true
			ex.Feats.EstCosts[k] = t.EstCost
			ex.Feats.Diffs[k] = steering.DiffVector(defaultSig, t.Signature)
			ex.Runtimes[k] = t.Metrics.RuntimeSec
		}
		if ex.Runtimes[0] < 0 {
			continue // job group membership requires a default plan
		}
		ds.Examples = append(ds.Examples, ex)
	}
	return ds
}

// Split partitions example indices into train/validation/test with the
// paper's 40/20/40 proportions (§7.4), deterministically in r.
type Split struct {
	Train, Val, Test []int
}

// NewSplit shuffles and splits the dataset.
func NewSplit(n int, r *xrand.Source) Split {
	p := r.Perm(n)
	nVal := n / 5
	nTrain := 2 * n / 5
	return Split{
		Val:   p[:nVal],
		Train: p[nVal : nVal+nTrain],
		Test:  p[nVal+nTrain:],
	}
}

// Model chooses arms for unseen jobs of one group.
type Model struct {
	Enc     *feature.Encoder
	Net     *nn.Network
	Configs []bitvec.Vector
}

// TrainOptions parameterize Train.
type TrainOptions struct {
	// Hidden is the hidden-layer width. The paper uses 1024; the simulator
	// defaults to 64, which at ~200 encoded features and a 16-example train
	// split costs tens of milliseconds per group (BenchmarkTrain in
	// internal/nn is one of the two budgets at that shape).
	Hidden int
	// NN configures each training run; its Epochs is the larger of the two
	// candidate budgets (non-positive means the nn default).
	NN nn.TrainConfig
}

// DefaultTrainOptions returns the simulator-scale defaults.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Hidden: 64, NN: nn.DefaultTrainConfig()}
}

// epochBudgets returns the candidate epoch budgets Train selects between on
// the validation split: half of epochs, then epochs itself. The half is
// dropped when it rounds to 0, which nn.Train would read as "the default
// budget", not as "no training".
func epochBudgets(epochs int) []int {
	if epochs <= 0 {
		epochs = nn.DefaultTrainConfig().Epochs
	}
	if epochs == 1 {
		return []int{1}
	}
	return []int{epochs / 2, epochs}
}

// samples encodes the given examples for training; the input vectors share
// one backing array.
func samples(enc *feature.Encoder, ds *Dataset, idx []int) []nn.Sample {
	width := enc.Width()
	xs := make([]float64, len(idx)*width)
	out := make([]nn.Sample, len(idx))
	for n, i := range idx {
		ex := ds.Examples[i]
		y, mask := normalizeTargets(ex.Runtimes)
		x := xs[n*width : (n+1)*width : (n+1)*width]
		out[n] = nn.Sample{X: enc.EncodeInto(x, ex.Feats), Y: y, Mask: mask}
	}
	return out
}

// Train fits a model on the dataset's train split. The validation split
// selects between candidate epoch budgets (light hyperparameter tuning, as
// §7.4 describes).
func Train(ds *Dataset, split Split, opts TrainOptions, r *xrand.Source) *Model {
	k := len(ds.Configs)
	trainFeats := make([]feature.JobFeatures, 0, len(split.Train))
	for _, i := range split.Train {
		trainFeats = append(trainFeats, ds.Examples[i].Feats)
	}
	enc := feature.Fit(trainFeats, k)

	trainSamples := samples(enc, ds, split.Train)
	selectOn := samples(enc, ds, split.Val)
	if len(selectOn) == 0 {
		selectOn = trainSamples
	}

	var best *nn.Network
	bestLoss := math.Inf(1)
	for _, epochs := range epochBudgets(opts.NN.Epochs) {
		cfg := opts.NN
		cfg.Epochs = epochs
		net := nn.New(enc.Width(), opts.Hidden, k, r.Derive("init", fmt.Sprint(epochs)))
		net.Train(trainSamples, cfg, r.Derive("train", fmt.Sprint(epochs)))
		if loss := net.BCELoss(selectOn); loss < bestLoss {
			bestLoss = loss
			best = net
		}
	}
	return &Model{Enc: enc, Net: best, Configs: ds.Configs}
}

// normalizeTargets min-max normalizes one example's runtimes to [0, 1] over
// the valid arms (the fastest arm gets 0): the model only needs the ranking,
// which is why BCE on normalized runtimes beats MSE here (§7.3).
func normalizeTargets(runtimes []float64) (y []float64, mask []bool) {
	y = make([]float64, len(runtimes))
	mask = make([]bool, len(runtimes))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, rt := range runtimes {
		if rt < 0 {
			continue
		}
		lo = math.Min(lo, rt)
		hi = math.Max(hi, rt)
	}
	for k, rt := range runtimes {
		if rt < 0 {
			continue
		}
		mask[k] = true
		if hi > lo {
			y[k] = (rt - lo) / (hi - lo)
		}
	}
	return y, mask
}

// Choose returns the arm index the model picks for an unseen job (the
// smallest predicted normalized runtime over valid arms).
func (m *Model) Choose(f feature.JobFeatures) int {
	var s chooseScratch
	return m.choose(&s, f)
}

// chooseScratch is the encoded vector and the forward-pass scratch of one
// choice; Evaluate reuses one across a whole split.
type chooseScratch struct {
	x    []float64
	eval nn.Eval
}

func (m *Model) choose(s *chooseScratch, f feature.JobFeatures) int {
	s.x = m.Enc.EncodeInto(s.x, f)
	best, bestV := 0, math.Inf(1)
	for k, v := range m.Net.ForwardInto(&s.eval, s.x) {
		if f.Valid != nil && k < len(f.Valid) && !f.Valid[k] {
			continue
		}
		if v < bestV {
			best, bestV = k, v
		}
	}
	return best
}

// Evaluation summarizes model quality on a split (Table 5): mean, 90th and
// 99th percentile runtimes when always using the default arm, the learned
// choice, and the best (oracle) arm.
type Evaluation struct {
	PerJob []JobOutcome
}

// JobOutcome is one test job's runtimes under the three policies.
type JobOutcome struct {
	Job     *workload.Job
	Default float64
	Learned float64
	Best    float64
	// Arm is the learned model's chosen arm.
	Arm int
}

// Evaluate applies the model to the given example indices.
func Evaluate(m *Model, ds *Dataset, idx []int) Evaluation {
	var ev Evaluation
	var scratch chooseScratch
	for _, i := range idx {
		ex := ds.Examples[i]
		arm := m.choose(&scratch, ex.Feats)
		best := math.Inf(1)
		for _, rt := range ex.Runtimes {
			if rt >= 0 && rt < best {
				best = rt
			}
		}
		learned := ex.Runtimes[arm]
		if learned < 0 {
			learned = ex.Runtimes[0]
		}
		ev.PerJob = append(ev.PerJob, JobOutcome{
			Job:     ex.Job,
			Default: ex.Runtimes[0],
			Learned: learned,
			Best:    best,
			Arm:     arm,
		})
	}
	return ev
}

// Summary holds mean/90P/99P for one policy.
type Summary struct {
	Mean, P90, P99 float64
}

// Summarize computes the Table 5 row statistics for a metric extractor.
func (ev Evaluation) Summarize(get func(JobOutcome) float64) Summary {
	vals := make([]float64, 0, len(ev.PerJob))
	for _, o := range ev.PerJob {
		vals = append(vals, get(o))
	}
	sort.Float64s(vals)
	var s Summary
	if len(vals) == 0 {
		return s
	}
	var total float64
	for _, v := range vals {
		total += v
	}
	s.Mean = total / float64(len(vals))
	s.P90 = vals[int(0.9*float64(len(vals)-1))]
	s.P99 = vals[int(0.99*float64(len(vals)-1))]
	return s
}

// SavedModel is the serialized form of a trained per-group model: the
// network, the encoder state and the arm configurations, so an online
// compiler front end can load and apply it without retraining (the paper's
// models are trained offline and used "in an online scenario", §4).
type SavedModel struct {
	Net     json.RawMessage  `json:"net"`
	Enc     *feature.Encoder `json:"encoder"`
	Configs []string         `json:"configs"` // hex-encoded arms
}

// Save serializes the model to JSON.
func (m *Model) Save() ([]byte, error) {
	netData, err := m.Net.Marshal()
	if err != nil {
		return nil, err
	}
	sm := SavedModel{Net: netData, Enc: m.Enc}
	for _, c := range m.Configs {
		sm.Configs = append(sm.Configs, c.Hex())
	}
	return json.Marshal(sm)
}

// ErrMalformed is wrapped by Load when a saved model's parts do not fit
// together (a network that is itself inconsistent wraps nn.ErrShape).
var ErrMalformed = errors.New("learning: malformed saved model")

// Load restores a model serialized with Save. A model that loads is safe to
// apply: the encoder, the network and the arms agree on every dimension.
func Load(data []byte) (*Model, error) {
	var sm SavedModel
	if err := json.Unmarshal(data, &sm); err != nil {
		return nil, fmt.Errorf("learning: load model: %w", err)
	}
	net, err := nn.Unmarshal(sm.Net)
	if err != nil {
		return nil, fmt.Errorf("learning: load model: %w", err)
	}
	switch {
	case sm.Enc == nil:
		return nil, fmt.Errorf("learning: load model: no encoder: %w", ErrMalformed)
	case len(sm.Configs) != net.Out:
		return nil, fmt.Errorf("learning: load model: %d arms, network with %d outputs: %w",
			len(sm.Configs), net.Out, ErrMalformed)
	case sm.Enc.Width() != net.In:
		return nil, fmt.Errorf("learning: load model: encoder width %d, network input %d: %w",
			sm.Enc.Width(), net.In, ErrMalformed)
	}
	m := &Model{Net: net, Enc: sm.Enc}
	for _, hx := range sm.Configs {
		v, err := bitvec.ParseHex(hx)
		if err != nil {
			return nil, fmt.Errorf("learning: load model: %w", err)
		}
		m.Configs = append(m.Configs, v)
	}
	return m, nil
}
