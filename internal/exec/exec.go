// Package exec simulates distributed execution of physical plans on a
// SCOPE-like cluster: stage-structured execution at the plan's chosen degrees
// of parallelism, with runtimes derived from *true* statistics
// (cost.ModeTrue) rather than the estimates the optimizer planned with.
//
// The simulator reproduces the error classes the paper attributes runtime
// wins and regressions to:
//
//   - cardinality gaps (correlations, skew, daily input drift, opaque UDOs)
//     make truly-expensive operators cheap on paper and vice versa;
//   - partition skew penalizes shuffles on hot keys, invisible to the
//     estimator;
//   - degrees of parallelism chosen from estimated sizes misfit the real
//     data;
//   - per-vertex scheduling overhead penalizes plans with many tiny
//     partitions (e.g. deep virtual-dataset unions).
//
// Executions are noisy but deterministic in (seed, job tag, plan, day), so
// A/B comparisons (internal/abtest) are reproducible while still showing the
// runtime variance the paper reports for short jobs (§3.1.1).
//
// A/B executions are most of a discovery re-pass; TestRunCostsEachNodeOnce
// and TestRunAllocationBudget keep an execution at one costing per node and,
// on a pooled sim, no allocation at all. DESIGN.md
// ("Execution simulator") states the noise-seed and summation-order contracts
// that any change here has to keep for the metrics to keep their bits.
package exec

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"steerq/internal/cascades"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/faults"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/xrand"
)

// Metrics are the outcome of one job execution, matching §3.1.2: runtime
// (wall clock), total CPU time across vertices, and total I/O time.
type Metrics struct {
	RuntimeSec float64
	CPUSec     float64
	IOTimeSec  float64
	IOBytes    float64
	// Vertices approximates the number of containers the job occupied.
	Vertices int
	// VertexSeconds is total container occupancy (sum over operators of
	// latency x parallelism) — the resource-consumption measure behind the
	// paper's "10%% of jobs consume 90%% of the containers".
	VertexSeconds float64
}

// Executor runs physical plans against the simulated cluster.
type Executor struct {
	Cat    *catalog.Catalog
	Coster *cost.Coster

	// Tokens is the container budget per job. The A/B infrastructure pins
	// it (50 in the paper's experiments, §3.1.3). Stages wider than the
	// token budget execute in waves.
	Tokens int

	// Seed roots the deterministic noise streams.
	Seed uint64

	// BaseSigma is the per-stage log-normal noise; short stages get extra
	// variance (short jobs vary ~10%, §3.1.1). Zero means the default.
	BaseSigma float64

	// HotSpotProb is the chance a stage lands on a hot node and slows
	// down. Zero means the default.
	HotSpotProb float64

	// CheckPlans runs cascades.Validate on every plan before executing it
	// and fails loudly on a violation. New enables it when the
	// STEERQ_CHECK_PLANS environment variable is non-empty; harnesses may
	// also set it directly.
	CheckPlans bool

	// Faults, when non-nil, injects deterministic execution faults into
	// RunCtx (Run itself stays fault-free: it models the cluster, not its
	// failure modes). Shared with the compile-side injector so one seed
	// governs the whole pipeline.
	Faults *faults.Injector

	// Pre-resolved instruments (see SetObs); nil-safe no-ops until wired.
	runtimeHist *obs.Histogram
	execFail    *obs.Counter
	execHang    *obs.Counter
}

// execRuntimeBounds bucket simulated runtimes in seconds, log-spaced over
// the range the workload generators produce (sub-second scans up to the
// paper's one-hour long-job ceiling).
var execRuntimeBounds = []float64{1, 10, 60, 300, 900, 1800, 3600, 7200}

// SetObs wires execution metrics into reg: a runtime histogram observed by
// every Run, and injected-fault counters for RunCtx. Instruments are
// resolved once here so the execution path pays atomic adds only. Call it
// before the executor is shared across goroutines.
func (x *Executor) SetObs(reg *obs.Registry) {
	x.runtimeHist = reg.Histogram("steerq_exec_runtime_seconds", execRuntimeBounds)
	x.execFail = reg.Counter("steerq_exec_faults_total", "kind", "fail")
	x.execHang = reg.Counter("steerq_exec_faults_total", "kind", "hang")
}

// New returns an executor with default rates for the given catalog.
func New(cat *catalog.Catalog, seed uint64) *Executor {
	return &Executor{
		Cat:         cat,
		Coster:      cost.NewCoster(),
		Tokens:      50,
		Seed:        seed,
		BaseSigma:   0.05,
		HotSpotProb: 0.02,
		CheckPlans:  os.Getenv("STEERQ_CHECK_PLANS") != "",
	}
}

// Run executes the plan for the given day. tag distinguishes executions of
// the same plan (job instance ID, attempt number): different tags see
// different noise, identical tags reproduce identical metrics.
func (x *Executor) Run(p *plan.PhysNode, day int, tag string) Metrics {
	s := simPool.Get().(*sim)
	s.simulate(x, p, day, tag)
	m := s.metrics
	s.release()
	simPool.Put(s)
	return m
}

// simNode is one distinct plan node of a simulated execution.
type simNode struct {
	node  *plan.PhysNode
	props cost.Props   // true statistics of the node's output
	usage cost.OpUsage // true usage: waves, skew and noise applied
	path  float64      // longest latency path from any leaf through this node
}

// sim is one simulated execution: the plan DAG flattened in post-order, each
// distinct node costed exactly once, and the metrics folded from the stored
// usages. Run and Explain are both views of it. It is confined to one call,
// so the shared Executor stays safe for concurrent use.
//
// Between calls a sim waits in simPool with its buffers, its stats arena and
// scratch's generator (~4.9 KB) kept, so a warm Run allocates nothing.
// Recycling is safe because nothing a call returns points into the sim:
// Metrics is a value, and Explain copies each node's rows and usage into its
// report before the sim goes back. Reusing scratch's generator changes no
// draw: a reseeded generator draws exactly like a freshly derived one
// (TestSourceReseedMatchesMathRand), which is already what every node but
// the first of one execution relies on.
type sim struct {
	x      *Executor
	oracle cost.Estimator // the true oracle of the execution's day
	// noise is the execution's stream; scratch is re-seeded from it per node,
	// and tag holds the node-content bytes that pick the node's seed.
	noise, scratch xrand.Source
	tag            []byte

	nodes   []simNode // post-order: children before parents, root last
	metrics Metrics
	reseeds int // noise reseeds performed; tests hold it to one per node

	// kids stacks the node indexes of the children of every node being
	// visited; inProps/inSchemas are the n-ary union's argument buffers.
	kids      []int
	inProps   []cost.Props
	inSchemas [][]plan.Column
	// stats backs every node's column statistics and dies with the sim.
	stats cost.Arena
}

// simPool holds the idle sims of Run and Explain.
var simPool = sync.Pool{
	New: func() any { return new(sim) },
}

// simulate runs one execution of p on s, which is new or released.
func (s *sim) simulate(x *Executor, p *plan.PhysNode, day int, tag string) {
	if x.CheckPlans {
		// maxDOP 0: a virtual dataset legitimately runs above the
		// optimizer's per-operator cap (see cascades.Validate).
		if err := cascades.Validate(p, 0); err != nil {
			// Executing a structurally broken plan would produce garbage
			// metrics silently; when checking is on, stop the experiment.
			// steerq:allow-panic
			panic(fmt.Sprintf("exec: STEERQ_CHECK_PLANS: job %q day %d: %v", tag, day, err))
		}
	}
	s.x, s.oracle = x, *cost.NewTrue(x.Cat, day)
	xrand.New(x.Seed).ReseedDerived(&s.noise, "exec", tag, strconv.Itoa(day))
	root := s.visit(p)

	// Totals in post-order, each node once — the order fixes the bits of the
	// float sums. Parallel branches overlap and operators along a path
	// serialize at stage boundaries, so the runtime is the root's longest
	// path.
	m := &s.metrics
	for i := range s.nodes {
		n, u := s.nodes[i].node, s.nodes[i].usage
		m.CPUSec += u.CPUSeconds
		m.IOBytes += u.IOBytes
		dop := max(n.Dist.DOP, 1)
		m.VertexSeconds += u.LatencySeconds * float64(dop)
		if isStageHead(n.Op) {
			m.Vertices += dop
		}
	}
	m.IOTimeSec = m.IOBytes / x.Coster.BytesPerIOSecond
	m.RuntimeSec = s.nodes[root].path
	x.runtimeHist.Observe(m.RuntimeSec)
}

// release drops what the execution filed — its references into the plan and
// the catalog — and rewinds, keeping every buffer's capacity, the stats
// arena and scratch's generator for the next execution.
func (s *sim) release() {
	s.x, s.oracle = nil, cost.Estimator{}
	s.tag = s.tag[:0]
	clear(s.nodes)
	s.nodes = s.nodes[:0]
	s.metrics, s.reseeds = Metrics{}, 0
	s.kids = s.kids[:0]
	// The union buffers are truncated per node, so references may sit past
	// their length.
	clear(s.inProps[:cap(s.inProps)])
	clear(s.inSchemas[:cap(s.inSchemas)])
	s.inProps, s.inSchemas = s.inProps[:0], s.inSchemas[:0]
	s.stats.Reset()
}

// index returns n's index in s.nodes, or -1 if n has not been simulated.
// Plans have tens of nodes: finding a shared node again is a scan, not a map.
func (s *sim) index(n *plan.PhysNode) int {
	for i := range s.nodes {
		if s.nodes[i].node == n {
			return i
		}
	}
	return -1
}

// visit returns n's index in s.nodes, first simulating n's subtree if this is
// the first edge to reach it.
func (s *sim) visit(n *plan.PhysNode) int {
	if i := s.index(n); i >= 0 {
		return i
	}
	base := len(s.kids)
	var childMax float64
	for _, c := range n.Children {
		k := s.visit(c)
		s.kids = append(s.kids, k)
		if v := s.nodes[k].path; v > childMax {
			childMax = v
		}
	}
	kids := s.kids[base:]
	props := s.trueProps(n, kids)
	u := s.nodeUsage(n, props, kids)
	s.kids = s.kids[:base]
	s.nodes = append(s.nodes, simNode{node: n, props: props, usage: u, path: childMax + u.LatencySeconds})
	return len(s.nodes) - 1
}

// RunCtx is Run behind the fault-injection and timeout layer: the injector
// (if any) may fail the attempt outright or hang it until ctx's deadline,
// and a context that is already done surfaces as a timeout instead of an
// execution. A clean attempt returns exactly Run's metrics — noise derives
// from (seed, tag, day), never from the attempt number, so a retried
// execution of the same plan reproduces the same metrics bit-for-bit.
func (x *Executor) RunCtx(ctx context.Context, p *plan.PhysNode, day int, tag string, attempt int) (Metrics, error) {
	switch x.Faults.Decide(faults.SiteExec, tag, attempt) {
	case faults.KindFail:
		x.execFail.Inc()
		return Metrics{}, faults.Injectedf(faults.SiteExec, tag, attempt)
	case faults.KindHang, faults.KindCorrupt:
		// Executions have no result to corrupt; a corrupt draw (site probs
		// normally keep it at zero) degrades to a hang.
		x.execHang.Inc()
		return Metrics{}, faults.Hang(ctx, faults.SiteExec, tag, attempt)
	}
	if err := ctx.Err(); err != nil {
		return Metrics{}, fmt.Errorf("%w: exec %s attempt %d: %v", faults.ErrTimeout, tag, attempt, err)
	}
	return x.Run(p, day, tag), nil
}

func isStageHead(op plan.PhysOp) bool {
	switch op {
	case plan.PhysExchange, plan.PhysExtract, plan.PhysRangeScan:
		return true
	default:
		return false
	}
}

// nodeUsage costs one node with true statistics, the plan's DOP, skew
// penalties and execution noise. props are the node's own true statistics and
// kids index its children in s.nodes. Deterministic per (executor seed, tag,
// day, node content): the noise seed is derived from the node's
// position-independent content, never from its place in the walk.
func (s *sim) nodeUsage(n *plan.PhysNode, props cost.Props, kids []int) cost.OpUsage {
	x := s.x
	var inRows, inBytes float64
	for _, k := range kids {
		cp := s.nodes[k].props
		inRows += cp.Rows
		inBytes += cp.Rows * cp.RowBytes
	}
	if n.Op == plan.PhysExtract || n.Op == plan.PhysRangeScan {
		// Scans read the whole (true) stream.
		if st := x.Cat.Stream(n.Table); st != nil {
			inRows = st.TrueRows(s.oracle.Day)
			inBytes = inRows * st.BytesPerRow
		}
	}
	dop := max(n.Dist.DOP, 1)
	params := cost.OpCostParams{
		Op:       n.Op,
		Exchange: n.Exchange,
		InRows:   inRows,
		InBytes:  inBytes,
		OutRows:  props.Rows,
		OutBytes: props.Rows * props.RowBytes,
		DOP:      dop,
		TopN:     n.TopN,
		Branches: len(n.Children),
	}
	if n.Processor != "" {
		params.UDO = x.Cat.UDO(n.Processor)
	}
	if len(kids) == 2 {
		switch n.Op {
		case plan.PhysHashJoin, plan.PhysHashJoinAlt, plan.PhysMergeJoin, plan.PhysLoopJoin:
			b := buildSide(n)
			params.BuildRows = s.nodes[kids[b]].props.Rows
			params.ProbeRows = s.nodes[kids[1-b]].props.Rows
		default:
			// Binary but not a join: no build/probe split to cost.
		}
	}
	u := x.Coster.Cost(params)

	// Wave execution past the token budget: a 200-wide stage on 50 tokens
	// needs four waves.
	if x.Tokens > 0 && dop > x.Tokens {
		waves := math.Ceil(float64(dop) / float64(x.Tokens))
		u.LatencySeconds *= waves
	}

	// Partition skew: shuffles and hash-partitioned consumers on a hot key
	// concentrate work on one vertex.
	if f := x.skewFactor(n); f > 1 {
		u.LatencySeconds *= f
	}

	// Execution noise, deterministic per node content. Re-seeding the
	// per-execution scratch stream draws exactly like a freshly derived one,
	// and xrand seeds only the words these two or three draws read.
	r := &s.scratch
	s.tag = appendNodeTag(s.tag[:0], n)
	s.noise.ReseedDerivedBytes(r, "node", s.tag)
	s.reseeds++
	sigma := x.BaseSigma + 0.25/math.Sqrt(1+u.LatencySeconds)
	mult := r.LogNormal(0, sigma)
	if r.Bool(x.HotSpotProb) {
		mult *= r.Uniform(1.3, 2.5)
	}
	u.LatencySeconds *= mult
	u.CPUSeconds *= mult
	return u
}

// buildSide locates the build side of a join. PhysHashJoin and PhysMergeJoin
// build on whichever side the optimizer *estimated* smaller — re-derived from
// the plan's estimates, not the truth, since the executor must honor the
// plan.
func buildSide(n *plan.PhysNode) int {
	if n.Op == plan.PhysHashJoinAlt || n.Op == plan.PhysLoopJoin {
		return 1 // always builds the (broadcast) right side
	}
	if n.Children[0].EstRows < n.Children[1].EstRows {
		return 0
	}
	return 1
}

// skewFactor penalizes hash partitioning on skewed keys: the hottest
// partition carries a disproportionate share.
func (x *Executor) skewFactor(n *plan.PhysNode) float64 {
	if n.Op != plan.PhysExchange || n.Exchange != plan.ExchangeShuffle {
		return 1
	}
	if n.Dist.Kind != plan.DistHash || n.Dist.DOP <= 1 {
		return 1
	}
	worst := 1.0
	for _, c := range n.Schema {
		id := c.ID
		for _, k := range n.Dist.Keys {
			if k != id {
				continue
			}
			// An unskewed or unresolvable column has fan-out 1: no penalty.
			_, _, sk := x.Cat.ColumnBySource(c.Source)
			// The hottest key's share bounded by one partition's capacity.
			pen := 1 + minf(sk.Fanout-1, float64(n.Dist.DOP)-1)*0.25
			if pen > worst {
				worst = pen
			}
		}
	}
	return worst
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// appendNodeTag appends the node's stable content tag, the bytes its noise
// seed is hashed from: "op|table|processor|dop|children", the predicate's
// rendering if any, then ",id" per schema column.
func appendNodeTag(b []byte, n *plan.PhysNode) []byte {
	b = strconv.AppendInt(b, int64(n.Op), 10)
	b = append(b, '|')
	b = append(b, n.Table...)
	b = append(b, '|')
	b = append(b, n.Processor...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n.Dist.DOP), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(n.Children)), 10)
	if n.Pred != nil {
		b = n.Pred.AppendString(b)
	}
	for _, c := range n.Schema {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(c.ID), 10)
	}
	return b
}

// trueProps derives the ground-truth statistics of n's output from those of
// its children, which s.nodes already holds at indexes kids.
func (s *sim) trueProps(n *plan.PhysNode, kids []int) cost.Props {
	oracle, a := &s.oracle, &s.stats
	in := func(i int) cost.Props { return s.nodes[kids[i]].props }
	switch n.Op {
	case plan.PhysExtract, plan.PhysRangeScan:
		return oracle.Scan(a, n.Table, n.Schema, n.Pred)
	case plan.PhysFilter:
		return oracle.Filter(a, in(0), n.Pred)
	case plan.PhysCompute:
		return oracle.Project(a, in(0), n.Projs)
	case plan.PhysHashJoin, plan.PhysHashJoinAlt, plan.PhysMergeJoin, plan.PhysLoopJoin:
		return oracle.Join(a, in(0), in(1), n.Pred)
	case plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysFinalHashAgg:
		return oracle.GroupBy(a, in(0), n.GroupKeys, n.Aggs)
	case plan.PhysPartialHashAgg:
		p := oracle.GroupBy(a, in(0), n.GroupKeys, n.Aggs)
		p.Rows = math.Min(in(0).Rows, p.Rows*float64(max(n.Dist.DOP, 1)))
		return p
	case plan.PhysUnionMerge, plan.PhysVirtualDataset:
		s.inProps, s.inSchemas = s.inProps[:0], s.inSchemas[:0]
		for i, c := range n.Children {
			s.inProps = append(s.inProps, in(i))
			s.inSchemas = append(s.inSchemas, c.Schema)
		}
		return oracle.UnionAll(a, s.inProps, s.inSchemas, n.Schema)
	case plan.PhysProcessImpl:
		return oracle.Process(a, in(0), n.Processor)
	case plan.PhysReduceImpl:
		return oracle.Reduce(a, in(0), n.ReduceKeys, n.Processor)
	case plan.PhysLocalTop:
		// Value copy shares the child's NDV set copy-on-write; only Rows
		// changes below (see the cost.Props contract).
		p := in(0)
		p.Rows = math.Min(p.Rows, float64(n.TopN)*float64(max(n.Dist.DOP, 1)))
		return p
	case plan.PhysGlobalTop:
		return oracle.Top(a, in(0), n.TopN)
	case plan.PhysSort, plan.PhysExchange, plan.PhysOutputImpl:
		return in(0)
	case plan.PhysMultiImpl:
		var p cost.Props
		for i := range kids {
			cp := in(i)
			p.Rows += cp.Rows
			if cp.RowBytes > p.RowBytes {
				p.RowBytes = cp.RowBytes
			}
		}
		return p
	default:
		return cost.Props{Rows: 1, RowBytes: 8}
	}
}
