package exec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// heap is the allocator the tests build plans with.
var heap plan.Heap

// simulate is Run's body on a sim the test holds: prepare p, then run it.
func (s *sim) simulate(x *Executor, p *plan.PhysNode, day int, tag string) {
	s.prepare(x, p, day, tag)
	s.run(x, &s.truth, tag)
}

func execCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "k", Distinct: 1000, TrueDistinct: 1000, Min: 0, Max: 1000, Skew: 1.3},
			{Name: "v", Distinct: 100, TrueDistinct: 100, Min: 0, Max: 100},
		},
		BaseRows: 1e7, BytesPerRow: 50, DailySigma: 0.2, GrowthPerDay: 1.01,
	})
	cat.AddUDO(&catalog.UDO{Name: "u", EstFactor: 1, TrueFactor: 2, CPUPerRow: 4})
	return cat
}

// scanPlan builds Extract -> Filter -> Output with the given DOPs.
func scanPlan(dop int) *plan.PhysNode {
	k := plan.Column{ID: 1, Name: "k", Source: "s.k"}
	v := plan.Column{ID: 2, Name: "v", Source: "s.v"}
	schema := []plan.Column{k, v}
	scan := &plan.PhysNode{
		Op: plan.PhysExtract, Table: "s", Schema: schema,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: dop}, EstRows: 1e7, RuleID: 3,
	}
	filter := &plan.PhysNode{
		Op: plan.PhysFilter, Schema: schema,
		Pred:     plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, v), plan.NumExpr(heap, 50)),
		Children: []*plan.PhysNode{scan},
		Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: dop}, EstRows: 5e6, RuleID: 4,
	}
	out := &plan.PhysNode{
		Op: plan.PhysOutputImpl, OutputPath: "o", Schema: schema,
		Children: []*plan.PhysNode{filter},
		Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: dop}, EstRows: 5e6, RuleID: 2,
	}
	return out
}

func TestRunDeterministic(t *testing.T) {
	x := New(execCatalog(), 42)
	p := scanPlan(10)
	m1 := x.Run(p, 0, "job1")
	m2 := x.Run(p, 0, "job1")
	if m1 != m2 {
		t.Fatalf("identical runs differ: %+v vs %+v", m1, m2)
	}
}

func TestRunNoiseVariesByTag(t *testing.T) {
	x := New(execCatalog(), 42)
	p := scanPlan(10)
	m1 := x.Run(p, 0, "job1")
	m2 := x.Run(p, 0, "job2")
	if m1.RuntimeSec == m2.RuntimeSec {
		t.Fatal("different job tags produced identical runtimes")
	}
	// Noise is bounded: the two runs are the same plan on the same data.
	ratio := m1.RuntimeSec / m2.RuntimeSec
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("noise unreasonably large: ratio %v", ratio)
	}
}

func TestRunVariesByDay(t *testing.T) {
	x := New(execCatalog(), 42)
	p := scanPlan(10)
	m0 := x.Run(p, 0, "job")
	m5 := x.Run(p, 5, "job")
	if m0.RuntimeSec == m5.RuntimeSec {
		t.Fatal("daily input drift not reflected in runtimes")
	}
}

func TestMetricsPositive(t *testing.T) {
	x := New(execCatalog(), 42)
	m := x.Run(scanPlan(10), 0, "job")
	if m.RuntimeSec <= 0 || m.CPUSec <= 0 || m.IOBytes <= 0 || m.Vertices <= 0 || m.VertexSeconds <= 0 {
		t.Fatalf("non-positive metrics: %+v", m)
	}
}

func TestParallelismReducesRuntime(t *testing.T) {
	x := New(execCatalog(), 42)
	x.BaseSigma = 0
	x.HotSpotProb = 0
	serial := x.Run(scanPlan(1), 0, "job")
	parallel := x.Run(scanPlan(40), 0, "job")
	if parallel.RuntimeSec >= serial.RuntimeSec {
		t.Fatalf("DOP 40 (%vs) not faster than DOP 1 (%vs)", parallel.RuntimeSec, serial.RuntimeSec)
	}
	// Total CPU is roughly parallelism-independent.
	ratio := parallel.CPUSec / serial.CPUSec
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("CPU total changed with parallelism: ratio %v", ratio)
	}
}

func TestWavePenaltyPastTokens(t *testing.T) {
	x := New(execCatalog(), 42)
	x.BaseSigma = 0
	x.HotSpotProb = 0
	x.Tokens = 10
	within := x.Run(scanPlan(10), 0, "job")
	x2 := New(execCatalog(), 42)
	x2.BaseSigma = 0
	x2.HotSpotProb = 0
	x2.Tokens = 10
	beyond := x2.Run(scanPlan(40), 0, "job")
	// 40-wide stages on 10 tokens run in 4 waves: no faster than 10-wide.
	if beyond.RuntimeSec < within.RuntimeSec*0.9 {
		t.Fatalf("token budget not enforced: 40-wide %vs vs 10-wide %vs", beyond.RuntimeSec, within.RuntimeSec)
	}
}

func TestSkewPenaltyOnHotKeyShuffle(t *testing.T) {
	x := New(execCatalog(), 42)
	x.BaseSigma = 0
	x.HotSpotProb = 0
	k := plan.Column{ID: 1, Name: "k", Source: "s.k"}
	schema := []plan.Column{k}
	scan := &plan.PhysNode{
		Op: plan.PhysExtract, Table: "s", Schema: schema,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 20}, RuleID: 3,
	}
	mk := func(keys []plan.ColumnID) *plan.PhysNode {
		// A keyless shuffle is a random repartition; only the hash variant
		// carries keys (and only it can hit skew).
		dist := plan.Distribution{Kind: plan.DistRandom, DOP: 20}
		if len(keys) > 0 {
			dist = plan.Distribution{Kind: plan.DistHash, Keys: keys, DOP: 20}
		}
		ex := &plan.PhysNode{
			Op: plan.PhysExchange, Exchange: plan.ExchangeShuffle, Schema: schema,
			Children: []*plan.PhysNode{scan},
			Dist:     dist,
			RuleID:   0,
		}
		return &plan.PhysNode{
			Op: plan.PhysOutputImpl, Schema: schema, OutputPath: "o",
			Children: []*plan.PhysNode{ex},
			Dist:     dist,
			RuleID:   2,
		}
	}
	onHotKey := x.Run(mk([]plan.ColumnID{1}), 0, "hot")
	onNoKey := x.Run(mk(nil), 0, "hot")
	if onHotKey.RuntimeSec <= onNoKey.RuntimeSec {
		t.Fatalf("hot-key shuffle (%vs) not slower than keyless (%vs)", onHotKey.RuntimeSec, onNoKey.RuntimeSec)
	}
}

func TestTruePropsUDOExpansion(t *testing.T) {
	x := New(execCatalog(), 42)
	k := plan.Column{ID: 1, Name: "k", Source: "s.k"}
	schema := []plan.Column{k}
	scan := &plan.PhysNode{
		Op: plan.PhysExtract, Table: "s", Schema: schema,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 10}, RuleID: 3,
	}
	proc := &plan.PhysNode{
		Op: plan.PhysProcessImpl, Processor: "u", Schema: schema,
		Children: []*plan.PhysNode{scan},
		Dist:     plan.Distribution{Kind: plan.DistRandom, DOP: 10}, RuleID: 233,
	}
	s := new(sim)
	s.simulate(x, proc, 0, "job")
	in, out := s.nodes[s.index(scan)].props.Rows, s.nodes[s.index(proc)].props.Rows
	if out != 2*in {
		t.Fatalf("true UDO factor lost: in=%v out=%v", in, out)
	}
}

func TestSharedNodeCountedOnce(t *testing.T) {
	x := New(execCatalog(), 42)
	x.BaseSigma = 0
	x.HotSpotProb = 0
	multi := diamondPlan()
	shared := x.Run(multi, 0, "dag")
	single := x.Run(multi.Children[0], 0, "dag")
	// The shared scan is paid once: the two-output job costs less CPU than
	// twice the single-output job.
	if shared.CPUSec >= 1.9*single.CPUSec {
		t.Fatalf("shared scan double-counted: %v vs 2x %v", shared.CPUSec, single.CPUSec)
	}
}

// diamondPlan is a DAG whose scan is shared by two outputs under one root:
// four distinct nodes, five edges.
func diamondPlan() *plan.PhysNode {
	k := plan.Column{ID: 1, Name: "k", Source: "s.k"}
	schema := []plan.Column{k}
	scan := &plan.PhysNode{
		Op: plan.PhysExtract, Table: "s", Schema: schema,
		Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 10}, RuleID: 3,
	}
	out1 := &plan.PhysNode{Op: plan.PhysOutputImpl, Schema: schema, OutputPath: "a", Children: []*plan.PhysNode{scan}, Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 10}, RuleID: 2}
	out2 := &plan.PhysNode{Op: plan.PhysOutputImpl, Schema: schema, OutputPath: "b", Children: []*plan.PhysNode{scan}, Dist: plan.Distribution{Kind: plan.DistRandom, DOP: 10}, RuleID: 2}
	return &plan.PhysNode{Op: plan.PhysMultiImpl, Schema: nil, Children: []*plan.PhysNode{out1, out2}, Dist: plan.Distribution{Kind: plan.DistSingleton, DOP: 1}, RuleID: 6}
}

// unionPlan is Output over a virtual-dataset union of the given number of
// Extract -> Filter -> hash-shuffle branches: 3*branches+2 distinct nodes,
// every filter constant different so no two branches share noise.
func unionPlan(branches int) *plan.PhysNode {
	k := plan.Column{ID: 1, Name: "k", Source: "s.k"}
	v := plan.Column{ID: 2, Name: "v", Source: "s.v"}
	schema := []plan.Column{k, v}
	random := plan.Distribution{Kind: plan.DistRandom, DOP: 10}
	hashed := plan.Distribution{Kind: plan.DistHash, Keys: []plan.ColumnID{1}, DOP: 10}
	union := &plan.PhysNode{Op: plan.PhysVirtualDataset, Schema: schema, Dist: hashed, RuleID: 5}
	for i := 0; i < branches; i++ {
		scan := &plan.PhysNode{Op: plan.PhysExtract, Table: "s", Schema: schema, Dist: random, EstRows: 1e7, RuleID: 3}
		filter := &plan.PhysNode{
			Op: plan.PhysFilter, Schema: schema, Children: []*plan.PhysNode{scan}, Dist: random, EstRows: 5e6, RuleID: 4,
			Pred: plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, v), plan.NumExpr(heap, float64(i))),
		}
		union.Children = append(union.Children, &plan.PhysNode{
			Op: plan.PhysExchange, Exchange: plan.ExchangeShuffle, Schema: schema,
			Children: []*plan.PhysNode{filter}, Dist: hashed, EstRows: 5e6,
		})
	}
	return &plan.PhysNode{Op: plan.PhysOutputImpl, OutputPath: "o", Schema: schema, Children: []*plan.PhysNode{union}, Dist: hashed, RuleID: 2}
}

func TestExplainMatchesRun(t *testing.T) {
	x := New(execCatalog(), 42)
	for name, p := range map[string]*plan.PhysNode{"chain": scanPlan(10), "diamond": diamondPlan(), "union": unionPlan(13)} {
		rep := x.Explain(p, 0, "job")
		m := x.Run(p, 0, "job")
		if rep.Metrics != m {
			t.Fatalf("%s: Explain metrics %+v differ from Run %+v", name, rep.Metrics, m)
		}
		if len(rep.Nodes) != p.Count() {
			t.Fatalf("%s: report has %d nodes, plan %d", name, len(rep.Nodes), p.Count())
		}
		// The reported usages are the ones the totals were folded from:
		// summed in the simulator's order (post-order, the report's pre-order
		// reversed for a chain) they reproduce the totals bit for bit; in any
		// order they agree to rounding.
		var cpu, io float64
		for _, n := range rep.Nodes {
			if n.TrueRows <= 0 || n.DOP < 1 {
				t.Fatalf("%s: bad node report: %+v", name, n)
			}
			cpu += n.Usage.CPUSeconds
			io += n.Usage.IOBytes
		}
		if math.Abs(cpu-m.CPUSec) > 1e-9*m.CPUSec || math.Abs(io-m.IOBytes) > 1e-9*m.IOBytes {
			t.Fatalf("%s: node usages sum to cpu %v io %v, totals %v %v", name, cpu, io, m.CPUSec, m.IOBytes)
		}
		if name == "chain" {
			var cpuPost float64
			for i := len(rep.Nodes) - 1; i >= 0; i-- {
				cpuPost += rep.Nodes[i].Usage.CPUSeconds
			}
			if cpuPost != m.CPUSec {
				t.Fatalf("post-order CPU sum %v != CPUSec %v", cpuPost, m.CPUSec)
			}
		}
	}
	rep := x.Explain(scanPlan(10), 0, "job")
	// The scan's mis-estimate reflects the day's drift from the stale
	// BaseRows statistic.
	scan := rep.Nodes[len(rep.Nodes)-1]
	if scan.Op != plan.PhysExtract {
		t.Fatalf("last pre-order node is %v", scan.Op)
	}
	if scan.MisestimateX == 1 {
		t.Fatal("scan mis-estimate exactly 1; daily drift missing")
	}
	s := rep.String()
	if !strings.Contains(s, "Extract") || !strings.Contains(s, "runtime") {
		t.Fatalf("report rendering incomplete:\n%s", s)
	}
}

// TestVerticesUseClampedDOP: a stage head occupies at least one container,
// the same clamped DOP its VertexSeconds are charged at.
func TestVerticesUseClampedDOP(t *testing.T) {
	x := New(execCatalog(), 42)
	x.CheckPlans = false // validated plans have DOP >= 1; the clamp is for the rest
	for _, tc := range []struct{ dop, want int }{{-1, 1}, {0, 1}, {1, 1}, {60, 60}} {
		// scanPlan's only stage head is its Extract.
		m := x.Run(scanPlan(tc.dop), 0, "job")
		if m.Vertices != tc.want {
			t.Errorf("DOP %d: Vertices = %d, want %d", tc.dop, m.Vertices, tc.want)
		}
		if m.VertexSeconds <= 0 {
			t.Errorf("DOP %d: VertexSeconds = %v", tc.dop, m.VertexSeconds)
		}
	}
}

// TestRunCostsEachNodeOnce: one execution costs — and reseeds the noise
// stream for — each distinct node exactly once, shared subtrees included.
func TestRunCostsEachNodeOnce(t *testing.T) {
	x := New(execCatalog(), 42)
	for name, p := range map[string]*plan.PhysNode{"diamond": diamondPlan(), "union41": unionPlan(13)} {
		s := new(sim)
		s.simulate(x, p, 0, "job")
		if want := p.Count(); len(s.nodes) != want || len(s.truth.nodes) != want || s.reseeds != want {
			t.Errorf("%s: %d nodes simulated (%d prepared), %d reseeds, plan has %d distinct nodes", name, len(s.nodes), len(s.truth.nodes), s.reseeds, want)
		}
		if len(s.kids) != 0 {
			t.Errorf("%s: child-index stack not unwound: %v", name, s.kids)
		}
	}
}

// TestNodeTagBytes: the strconv-assembled tag is byte for byte the string the
// fmt-built one was (kept here as the reference), so every noise seed stands.
func TestNodeTagBytes(t *testing.T) {
	ref := func(n *plan.PhysNode) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%d|%s|%s|%d|%d", n.Op, n.Table, n.Processor, n.Dist.DOP, len(n.Children))
		if n.Pred != nil {
			b.WriteString(n.Pred.String())
		}
		for _, c := range n.Schema {
			fmt.Fprintf(&b, ",%d", c.ID)
		}
		return b.String()
	}
	odd := &plan.PhysNode{Op: plan.PhysProcessImpl, Processor: "u", Dist: plan.Distribution{DOP: -3}, Schema: []plan.Column{{ID: -7}, {ID: 1 << 40}}}
	var buf []byte
	for _, root := range []*plan.PhysNode{scanPlan(10), diamondPlan(), unionPlan(3), odd} {
		root.Walk(func(n *plan.PhysNode) {
			buf = appendNodeTag(buf[:0], n)
			if string(buf) != ref(n) {
				t.Fatalf("tag %q, fmt reference %q", buf, ref(n))
			}
		})
	}
}

// TestRunAllocationBudget: a warm execution allocates nothing — no per-node
// statistics, no per-call map, no generator, no noise-tag string, no second
// costing. The node list, the union buffers, the noise tag, the statistics
// arena and the scratch generator all live in the sim and are kept across
// executions. The counts are taken on a sim the test holds, so they do not
// depend on whether simPool kept a Put (under -race it drops a random quarter
// of them), and with plan checking off: Validate is a diagnostic, not the
// simulator.
func TestRunAllocationBudget(t *testing.T) {
	x := New(execCatalog(), 42)
	x.CheckPlans = false
	s := new(sim)
	allocs := func(branches int) float64 {
		p := unionPlan(branches)
		return testing.AllocsPerRun(20, func() {
			s.simulate(x, p, 0, "job")
			s.release()
		})
	}
	small, large := allocs(4), allocs(40)
	perNode := (large - small) / (3 * 36)
	t.Logf("allocs: %v at 14 nodes, %v at 122 nodes, %.2f per node", small, large, perNode)
	if perNode != 0 {
		t.Errorf("Run allocates %.2f per node (%v at 14 nodes, %v at 122), want 0", perNode, small, large)
	}
	if fixed := small - 14*perNode; fixed != 0 {
		t.Errorf("Run's fixed allocations %.1f, want 0", fixed)
	}
}

// TestPreparedRunAllocationBudget: a warm run of a retained Prepared — the
// re-execution a recurring job's kept plan gets — allocates nothing at any
// plan size, and reseeds the noise stream once per node.
func TestPreparedRunAllocationBudget(t *testing.T) {
	x := New(execCatalog(), 42)
	s := new(sim)
	for _, branches := range []int{4, 40} {
		p := unionPlan(branches)
		pr := x.Prepare(p, 0, "job")
		if allocs := testing.AllocsPerRun(20, func() {
			s.run(x, pr, "job")
			s.release()
		}); allocs != 0 {
			t.Errorf("%d nodes: a warm prepared run allocates %v, want 0", p.Count(), allocs)
		}
		s.run(x, pr, "job")
		if s.reseeds != p.Count() {
			t.Errorf("%d nodes: %d reseeds", p.Count(), s.reseeds)
		}
		s.release()
	}
}

// TestPreparedIsExactlySized: a retained Prepared holds no spare capacity
// and no reference into the sim that prepared it, so later executions on
// that sim leave it as it was.
func TestPreparedIsExactlySized(t *testing.T) {
	x := New(execCatalog(), 42)
	p := unionPlan(13)
	pr := x.Prepare(p, 2, "job")
	if n := p.Count(); len(pr.nodes) != n || cap(pr.nodes) != n || cap(pr.kids) != len(pr.kids) || cap(pr.tags) != len(pr.tags) {
		t.Fatalf("prepared %d/%d nodes, %d/%d kids, %d/%d tag bytes; plan has %d nodes",
			len(pr.nodes), cap(pr.nodes), len(pr.kids), cap(pr.kids), len(pr.tags), cap(pr.tags), n)
	}
	want := x.RunPrepared(pr, "job")
	for i := 0; i < 4; i++ {
		x.Run(unionPlan(20), 2, "other")
	}
	if got := x.RunPrepared(pr, "job"); got != want || got != x.Run(p, 2, "job") {
		t.Fatalf("prepared run %+v after other executions, first %+v", got, want)
	}
	if !pr.Fits(x, 2) || pr.Fits(x, 3) || pr.Fits(New(execCatalog(), 42), 2) {
		t.Fatal("Fits does not match the day and the catalog")
	}
	y := New(x.Cat, 42)
	y.Tokens = 10
	if pr.Fits(y, 2) {
		t.Fatal("Fits ignores the token budget")
	}
}

// TestRunReusesScratch: executions on one Executor share pooled sims, and a
// sim a larger plan grew carries nothing into the next execution — P1 run
// before and after P2, and explained, reads the same Metrics bit for bit.
func TestRunReusesScratch(t *testing.T) {
	x := New(execCatalog(), 42)
	p1, p2 := diamondPlan(), unionPlan(13)
	first := x.Run(p1, 0, "t1")
	x.Run(p2, 3, "t2")
	again := x.Run(p1, 0, "t1")
	explained := x.Explain(p1, 0, "t1").Metrics
	bits := func(m Metrics) [6]uint64 {
		return [6]uint64{
			math.Float64bits(m.RuntimeSec), math.Float64bits(m.CPUSec), math.Float64bits(m.IOTimeSec),
			math.Float64bits(m.IOBytes), uint64(m.Vertices), math.Float64bits(m.VertexSeconds),
		}
	}
	// The pool may hand each call a different sim; one held sim reuses
	// for certain.
	s := new(sim)
	held := func(p *plan.PhysNode, day int, tag string) Metrics {
		s.simulate(x, p, day, tag)
		defer s.release()
		return s.metrics
	}
	held(p1, 0, "t1")
	held(p2, 3, "t2")
	for name, m := range map[string]Metrics{"second Run": again, "Explain": explained, "held sim": held(p1, 0, "t1")} {
		if bits(m) != bits(first) {
			t.Errorf("%s of P1 after P2: %+v, first Run %+v", name, m, first)
		}
	}
}

// TestConcurrentRunsShareCatalog: executions are pure in (seed, tag, plan,
// day) even when eight goroutines race to be the first to resolve a column's
// skew statistics in a fresh catalog. Run with -race.
func TestConcurrentRunsShareCatalog(t *testing.T) {
	plans := []*plan.PhysNode{scanPlan(10), diamondPlan(), unionPlan(3), unionPlan(13)}
	want := make([]Metrics, len(plans))
	ref := New(execCatalog(), 42)
	for i, p := range plans {
		want[i] = ref.Run(p, i, "job")
	}
	x := New(execCatalog(), 42)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range plans {
				if m := x.Run(p, i, "job"); m != want[i] {
					t.Errorf("plan %d: concurrent metrics %+v, serial %+v", i, m, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestCheckPlansEnvToggle(t *testing.T) {
	t.Setenv("STEERQ_CHECK_PLANS", "1")
	x := New(execCatalog(), 42)
	if !x.CheckPlans {
		t.Fatal("STEERQ_CHECK_PLANS=1 did not enable plan checking")
	}
	// A valid plan runs normally under checking.
	if m := x.Run(scanPlan(10), 0, "job"); m.RuntimeSec <= 0 {
		t.Fatalf("checked run produced bad metrics: %+v", m)
	}
	// A broken plan stops the run.
	broken := scanPlan(10)
	broken.RuleID = -1
	defer func() {
		if recover() == nil {
			t.Fatal("broken plan executed despite STEERQ_CHECK_PLANS")
		}
	}()
	x.Run(broken, 0, "job")
}

func TestCheckPlansOffByDefault(t *testing.T) {
	t.Setenv("STEERQ_CHECK_PLANS", "")
	x := New(execCatalog(), 42)
	if x.CheckPlans {
		t.Fatal("plan checking on without STEERQ_CHECK_PLANS")
	}
	// Without the toggle, even a defective plan executes (the simulator is
	// lenient by default; validation is an opt-in assertion).
	broken := scanPlan(10)
	broken.RuleID = -1
	if m := x.Run(broken, 0, "job"); m.RuntimeSec <= 0 {
		t.Fatalf("unchecked run produced bad metrics: %+v", m)
	}
}
