package cascades_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
	"steerq/internal/cost"
	"steerq/internal/obs"
	"steerq/internal/plan"
	"steerq/internal/rules"
	"steerq/internal/steering"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// oneShot is what a fresh Optimize returns for one configuration, flattened
// to what a session compile must reproduce.
type oneShot struct {
	noPlan         bool
	costBits       uint64
	sig, footprint bitvec.Vector
	groups, exprs  int
	plan           string
}

func flatten(t *testing.T, res *cascades.Result, err error) oneShot {
	t.Helper()
	if err != nil && !errors.Is(err, cascades.ErrNoPlan) {
		t.Fatal(err)
	}
	o := oneShot{noPlan: err != nil, costBits: math.Float64bits(res.Cost), sig: res.Signature,
		footprint: res.Footprint, groups: res.Groups, exprs: res.Exprs}
	if res.Plan != nil {
		o.plan = res.Plan.String()
	}
	return o
}

// sweep is one job's span probes followed by its candidate configurations —
// the compiles one pipeline analysis sends through one session — with the
// fresh one-shot outcome of each and the implementation-rule firings those
// one-shot compiles took together.
type sweep struct {
	span     bitvec.Vector
	probes   int
	cfgs     []bitvec.Vector
	want     []oneShot // with plan
	implFire uint64
}

func newSweep(t *testing.T, opt *cascades.Optimizer, impl *obs.Counter, job *workload.Job, m int) sweep {
	t.Helper()
	var sw sweep
	span, err := steering.JobSpanFunc(opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
		sw.cfgs = append(sw.cfgs, cfg)
		res, err := opt.Optimize(job.Root, cfg)
		if err != nil {
			return bitvec.Vector{}, err
		}
		return res.Signature, nil
	})
	if err != nil {
		t.Fatalf("%s: span: %v", job.ID, err)
	}
	sw.span, sw.probes = span, len(sw.cfgs)
	sw.cfgs = append(sw.cfgs, steering.CandidateConfigs(span, opt.Rules, m, xrand.New(5).Derive("sweep", job.ID))...)
	impl0 := impl.Value()
	for _, cfg := range sw.cfgs {
		res, err := opt.Optimize(job.Root, cfg)
		sw.want = append(sw.want, flatten(t, res, err))
	}
	sw.implFire = impl.Value() - impl0
	return sw
}

func sessionJobs(t *testing.T) (*cascades.Optimizer, *obs.Registry, []*workload.Job) {
	t.Helper()
	w := workload.Generate(workload.ProfileA(0.0005, 9))
	reg := obs.New()
	opt := rules.NewOptimizer(cost.NewEstimated(w.Cat))
	opt.SetObs(reg)
	jobs := w.Day(0)
	if len(jobs) > 24 {
		jobs = jobs[:24]
	}
	if len(jobs) < 20 {
		t.Fatalf("only %d generated jobs", len(jobs))
	}
	return opt, reg, jobs
}

// transformMask recomputes, from the rule set's public face, the bits that key
// a session's explored memos: the non-required transformation rules.
func transformMask(rs *cascades.RuleSet) bitvec.Vector {
	var mask bitvec.Vector
	for _, r := range rs.Transforms {
		if ri := r.Info(); ri.Category != cascades.Required {
			mask.Set(ri.ID)
		}
	}
	return mask
}

// TestSessionMatchesOneShot is the session's equivalence oracle over the real
// catalog: for generated jobs, each job's span probes and 300 candidates go
// through one session in forward, reversed and shuffled order, plan-less and
// with-plan compiles interleaved on the same memos, and every Result equals a
// fresh Optimize's — error class, cost by IEEE bits, signature, footprint,
// memo size, and plan text when asked for. The sweep must explore exactly one
// memo per transform-bit class of its configurations, which is at most
// 2^(transform rules in the span) beyond its span probes, and must reuse group
// states: its implementation-rule firings stay strictly below what the same
// compiles fire one-shot. (The frozen-memo census, group-state reuse on a
// known plan, arena retirement and buffer growth on a fresh arena need package
// internals: session_internal_test.go.)
func TestSessionMatchesOneShot(t *testing.T) {
	opt, reg, jobs := sessionJobs(t)
	mask := transformMask(opt.Rules)
	fresh := reg.Counter("steerq_cascades_explorations_total", "outcome", "fresh")
	shared := reg.Counter("steerq_cascades_explorations_total", "outcome", "shared")
	impl := reg.Counter("steerq_cascades_rule_firings_total", "category", cascades.Implementation.String())
	sharedTotal, multiMemo := uint64(0), 0
	var implSweeps, implOneShot uint64
	for ji, job := range jobs {
		sw := newSweep(t, opt, impl, job, 300)
		n := len(sw.cfgs)
		classes := map[bitvec.Key]bool{}
		for _, cfg := range sw.cfgs {
			classes[cfg.And(mask).Key()] = true
		}
		bound := uint64(1)<<sw.span.And(mask).Count() + uint64(sw.probes)
		if uint64(len(classes)) > bound {
			t.Fatalf("%s: %d transform-bit classes, bound %d", job.ID, len(classes), bound)
		}
		if len(classes) > 1 {
			multiMemo++
		}
		forward := make([]int, n)
		for i := range forward {
			forward[i] = i
		}
		reversed := slices.Clone(forward)
		slices.Reverse(reversed)
		for oi, order := range [][]int{forward, reversed, xrand.New(uint64(ji)).Perm(n)} {
			fresh0, shared0, impl0 := fresh.Value(), shared.Value(), impl.Value()
			sess := opt.NewSession(job.Root)
			for step, i := range order {
				withPlan := (step+ji)%2 == 0
				res, err := sess.Optimize(sw.cfgs[i], withPlan)
				got, want := flatten(t, res, err), sw.want[i]
				if !withPlan {
					want.plan = ""
				}
				if got != want {
					t.Fatalf("%s order %d step %d (cfg %d): session compile diverges from a fresh Optimize\ngot:  %+v\nwant: %+v",
						job.ID, oi, step, i, got, want)
				}
			}
			sess.Close()
			explored, reused := fresh.Value()-fresh0, shared.Value()-shared0
			if explored != uint64(len(classes)) || explored+reused != uint64(n) {
				t.Fatalf("%s order %d: %d fresh + %d shared explorations for %d compiles in %d transform-bit classes",
					job.ID, oi, explored, reused, n, len(classes))
			}
			if fired := impl.Value() - impl0; fired >= sw.implFire {
				t.Fatalf("%s order %d: the sweep fired %d implementation rules, its one-shot compiles %d: no group state was reused",
					job.ID, oi, fired, sw.implFire)
			}
			sharedTotal += reused
			implSweeps += impl.Value() - impl0
			implOneShot += sw.implFire
		}
	}
	if sharedTotal == 0 || multiMemo == 0 {
		t.Fatalf("%d shared explorations, %d multi-memo jobs; the oracle is vacuous", sharedTotal, multiMemo)
	}
	t.Logf("implementation firings: %d through sessions, %d one-shot", implSweeps, implOneShot)
}

// dag renders a plan as the DAG it is: each distinct node once, in pre-order,
// with every field the executor reads down to IEEE bits, and its children as
// the indices of their first rendering — so two plans render alike only if
// they hold the same operators and share the same subplans. It also returns
// the number of distinct nodes and of nodes with more than one parent edge.
func dag(p *plan.PhysNode) (text string, nodes, shared int) {
	var b strings.Builder
	index := map[*plan.PhysNode]int{}
	parents := map[*plan.PhysNode]int{}
	var rec func(n *plan.PhysNode) int
	rec = func(n *plan.PhysNode) int {
		if i, ok := index[n]; ok {
			return i
		}
		i := len(index)
		index[n] = i
		kids := make([]int, len(n.Children))
		for k, c := range n.Children {
			parents[c]++
			kids[k] = rec(c)
		}
		fmt.Fprintf(&b, "#%d %v %v %v %q %v %v %v %v %q %v %d %v %q %v %x %x %x %d <- %v\n", i, n.Op, n.Exchange, n.Schema,
			n.Table, n.Pred, n.Projs, n.GroupKeys, n.Aggs, n.Processor, n.ReduceKeys, n.TopN, n.SortKeys, n.OutputPath, n.Dist,
			math.Float64bits(n.EstRows), math.Float64bits(n.EstCost), math.Float64bits(n.TotalCost), n.RuleID, kids)
		return i
	}
	rec(p)
	for _, k := range parents {
		if k > 1 {
			shared++
		}
	}
	return b.String(), len(index), shared
}

// TestSessionReusesCandidates: the widest-span job of the sweep jobs, and
// the widest-span one whose default plan shares a subplan, each have their
// span probes and 300 candidates compiled, with a plan, on one session, and
// every compile equals a one-shot Optimize — cost bits, signature, footprint,
// and the full plan as a DAG (same nodes, same shared subplans) — although
// the session builds and costs strictly fewer candidates than its compiles
// resolve: a candidate whose prototype and child winners an earlier compile
// already saw is reused, and so is an enforcer over a candidate for a
// requirement it was already enforced for. Compiling every configuration
// again on the session resolves every group to a filed state and costs
// nothing.
func TestSessionReusesCandidates(t *testing.T) {
	opt, _, jobs := sessionJobs(t)
	type sweep struct {
		job   *workload.Job
		width int
		cfgs  []bitvec.Vector
	}
	widest, sharing := sweep{width: -1}, sweep{width: -1}
	for _, j := range jobs {
		var probes []bitvec.Vector
		span, err := steering.JobSpanFunc(opt.Rules, func(cfg bitvec.Vector) (bitvec.Vector, error) {
			probes = append(probes, cfg)
			res, err := opt.OptimizeCost(j.Root, cfg)
			if err != nil {
				return bitvec.Vector{}, err
			}
			return res.Signature, nil
		})
		if err != nil {
			t.Fatalf("%s: span: %v", j.ID, err)
		}
		sw := sweep{j, span.Count(), append(probes, steering.CandidateConfigs(span, opt.Rules, 300, xrand.New(5).Derive("reuse", j.ID))...)}
		if sw.width > widest.width {
			widest = sw
		}
		def, err := opt.Optimize(j.Root, opt.Rules.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
		if _, _, shared := dag(def.Plan); shared > 0 && sw.width > sharing.width {
			sharing = sw
		}
	}
	if sharing.job == nil {
		t.Fatal("no sweep job's default plan shares a subplan; the DAG comparison is vacuous")
	}
	type outcome struct {
		oneShot
		dag           string
		nodes, shared int
	}
	compile := func(res *cascades.Result, err error) outcome {
		o := outcome{oneShot: flatten(t, res, err)}
		if res.Plan != nil {
			o.dag, o.nodes, o.shared = dag(res.Plan)
		}
		return o
	}
	for _, sw := range []sweep{widest, sharing} {
		want := make([]outcome, len(sw.cfgs))
		for i, cfg := range sw.cfgs {
			want[i] = compile(opt.Optimize(sw.job.Root, cfg))
		}
		sess := opt.NewSession(sw.job.Root)
		for pass := 0; pass < 2; pass++ {
			resolved0, costed0 := sess.Candidates()
			for i, cfg := range sw.cfgs {
				if got := compile(sess.Optimize(cfg, true)); got != want[i] {
					t.Fatalf("%s pass %d cfg %d: session compile diverges from a fresh Optimize\ngot:  %+v\nwant: %+v", sw.job.ID, pass, i, got, want[i])
				}
			}
			resolved, costed := sess.Candidates()
			resolved, costed = resolved-resolved0, costed-costed0
			switch {
			case pass == 0 && (costed == 0 || costed >= resolved):
				t.Fatalf("%s: %d compiles costed %d of the %d candidates they resolved: nothing was reused", sw.job.ID, len(sw.cfgs), costed, resolved)
			case pass == 1 && resolved != 0:
				t.Fatalf("%s: compiling %d configurations again resolved %d candidates and costed %d, want none", sw.job.ID, len(sw.cfgs), resolved, costed)
			case pass == 0:
				t.Logf("%s (span %d): %d compiles resolved %d candidates and costed %d (%.1f %% reused)",
					sw.job.ID, sw.width, len(sw.cfgs), resolved, costed, 100*float64(resolved-costed)/float64(resolved))
			}
		}
		sess.Close()
	}
}

// TestSessionNoPlanSharesMemo: configurations that fail to compile share
// explored memos like any other and keep their own footprint — the failing
// verdict is decided in the physical phase, after the shared prefix.
func TestSessionNoPlanSharesMemo(t *testing.T) {
	cat := testCatalog()
	opt := newOpt(cat)
	reg := obs.New()
	opt.SetObs(reg)
	root := compile(t, cat, joinAggScript)
	base := opt.Rules.DefaultConfig()
	noJoin := base
	for _, id := range []int{rules.IDHashJoinImpl1, rules.IDJoinImpl2, rules.IDMergeJoinImpl, rules.IDJoinToApplyIndex1} {
		noJoin.Clear(id)
	}
	noJoinNoHashAgg := noJoin
	noJoinNoHashAgg.Clear(rules.IDHashAggImpl)

	cfgs := []bitvec.Vector{noJoin, base, noJoinNoHashAgg, noJoin}
	want := make([]*cascades.Result, len(cfgs))
	werr := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		want[i], werr[i] = opt.Optimize(root, cfg)
	}
	fresh := reg.Counter("steerq_cascades_explorations_total", "outcome", "fresh")
	fresh0 := fresh.Value()
	sess := opt.NewSession(root)
	defer sess.Close()
	for i, cfg := range cfgs {
		got, gerr := sess.Optimize(cfg, false)
		if errors.Is(werr[i], cascades.ErrNoPlan) != errors.Is(gerr, cascades.ErrNoPlan) || (werr[i] == nil) != (gerr == nil) {
			t.Fatalf("cfg %d: session err %v, fresh err %v", i, gerr, werr[i])
		}
		if !got.Footprint.Equal(want[i].Footprint) || got.Groups != want[i].Groups || got.Exprs != want[i].Exprs {
			t.Fatalf("cfg %d: session result %+v, fresh %+v", i, got, want[i])
		}
		if cfg.Equal(base) == (gerr != nil) {
			t.Fatalf("cfg %d: unexpected verdict %v", i, gerr)
		}
	}
	if explored := fresh.Value() - fresh0; explored != 1 {
		t.Fatalf("four configurations agreeing on every transform bit explored %d memos", explored)
	}
}

// TestSessionWarmCompileAllocations: on an explored memo and a warm arena, a
// plan-less compile allocates its Result and nothing else — no statistics, no
// candidates, no search state — whatever the size of the plan.
func TestSessionWarmCompileAllocations(t *testing.T) {
	opt, _, jobs := sessionJobs(t)
	cfg := opt.Rules.DefaultConfig()
	worst := 0.0
	for _, job := range jobs {
		sess := opt.NewSession(job.Root)
		compile := func() {
			if _, err := sess.Optimize(cfg, false); err != nil {
				t.Fatalf("%s: %v", job.ID, err)
			}
		}
		compile() // explores the memo
		compile() // the arena's buffers reach their steady size
		n := testing.AllocsPerRun(10, compile)
		if n > 2 {
			res, _ := sess.Optimize(cfg, false)
			t.Errorf("%s (%d groups): a warm plan-less compile allocates %v objects, budget 2", job.ID, res.Groups, n)
		}
		worst = max(worst, n)
		sess.Close()
	}
	t.Logf("warm plan-less compile: at most %v allocations over %d jobs", worst, len(jobs))
}

// TestOneShotCompileBytes bounds what a one-shot default compile of the
// widest Workload A job allocates — session, memo build, exploration,
// physical phase and extracted plan — in bytes: rules carve their payloads,
// prototypes and keys from the session's pooled arena, so a warm compile
// allocates little beyond the plan it returns. A rule that builds on the heap
// again multiplies by every compile of a discovery pass and trips the bound,
// which is about twice the measured steady state (≈7 KB).
func TestOneShotCompileBytes(t *testing.T) {
	opt, _, jobs := sessionJobs(t)
	cfg := opt.Rules.DefaultConfig()
	var job *workload.Job
	widest := 0
	for _, j := range jobs {
		res, err := opt.Optimize(j.Root, cfg)
		if err != nil {
			t.Fatalf("%s: %v", j.ID, err)
		}
		if res.Exprs > widest {
			job, widest = j, res.Exprs
		}
	}
	// The least of 30 compiles: one whose pooled arena was dropped — by a
	// collection, or at random under the race detector — pays for carving a
	// new one.
	perCompile := uint64(math.MaxUint64)
	for i := 0; i < 30; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := opt.Optimize(job.Root, cfg); err != nil {
			t.Fatalf("%s: %v", job.ID, err)
		}
		runtime.ReadMemStats(&after)
		perCompile = min(perCompile, after.TotalAlloc-before.TotalAlloc)
	}
	const budget = 16 << 10
	t.Logf("%s (%d expressions): %d bytes per one-shot compile (budget %d)", job.ID, widest, perCompile, budget)
	if perCompile > budget {
		t.Fatalf("a one-shot compile of %s allocates %d bytes, over the %d budget — a rule or the extraction builds on the heap again", job.ID, perCompile, budget)
	}
}

// TestConcurrentSessionsShareEstimator: eight goroutines sweep every job
// through sessions of one Optimizer — one shared Estimator, Coster and rule
// set, arenas passed between them through the pool — and get the serial
// results. Run with -race: the estimator carries no per-compile state to race
// on, and no arena is held by two sessions at once.
func TestConcurrentSessionsShareEstimator(t *testing.T) {
	opt, _, jobs := sessionJobs(t)
	base := opt.Rules.DefaultConfig()
	cfgs := []bitvec.Vector{base, base, base}
	cfgs[1].Clear(rules.IDHashJoinImpl1)
	cfgs[2].Clear(rules.IDHashAggImpl)
	want := make([][]oneShot, len(jobs))
	for ji, job := range jobs {
		for _, cfg := range cfgs {
			res, err := opt.Optimize(job.Root, cfg)
			want[ji] = append(want[ji], flatten(t, res, err))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				ji := (k + 3*g) % len(jobs) // every goroutine on a different job
				sess := opt.NewSession(jobs[ji].Root)
				for ci, cfg := range cfgs {
					res, err := sess.Optimize(cfg, true)
					if err != nil && !errors.Is(err, cascades.ErrNoPlan) {
						t.Errorf("%s cfg %d: %v", jobs[ji].ID, ci, err)
						continue
					}
					if got := flatten(t, res, err); got != want[ji][ci] {
						t.Errorf("%s cfg %d: concurrent session diverges from the serial compile", jobs[ji].ID, ci)
					}
				}
				sess.Close()
			}
		}(g)
	}
	wg.Wait()
}
