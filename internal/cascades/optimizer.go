package cascades

import (
	"errors"
	"fmt"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/obs"
	"steerq/internal/plan"
)

// Optimizer compiles logical plans into physical plans under a rule
// configuration.
type Optimizer struct {
	Rules  *RuleSet
	Est    *cost.Estimator
	Coster *cost.Coster

	// EnforceExchangeID and EnforceSortID are the rule IDs attributed to
	// enforcer-inserted Exchange and Sort operators. Both must name
	// Required rules in the rule set.
	EnforceExchangeID int
	EnforceSortID     int

	// om holds the pre-resolved observability instruments (see SetObs).
	// All fields are nil-safe no-ops until SetObs is called.
	om optObs
}

// optObs are the optimizer's pre-resolved metrics: resolved once in SetObs
// so the per-compilation hot paths pay one atomic add, not a registry
// lookup. Counters are atomic and histograms hold commutative integer
// state, so concurrent Optimize calls stay deterministic at snapshot time.
type optObs struct {
	// firings counts rule applications actually performed, per rule
	// category: a transformation shared through a Session's memo fired once,
	// and so did an implementation rule consulted by a shared group state.
	// Each compile adds its tallies once, when it ends.
	firings [NumCategories]*obs.Counter
	// explored counts compiles by where their explored memo came from:
	// built for the compile (fresh) or shared from an earlier compile of
	// the same Session.
	exploredFresh, exploredShared *obs.Counter
	// compiles counts outcomes: ok and noplan.
	ok, noPlan *obs.Counter
	// collisions accumulates memo interning hash collisions.
	collisions *obs.Counter
	// groups and exprs record final memo sizes per compilation.
	groups, exprs *obs.Histogram
}

// The search's fixed limits: maxDOP caps the degree of parallelism per
// operator (SCOPE's 50-token cap, §3.1.3), maxPasses bounds exploration
// rounds, and memoExprLimit and memoTotalLimit bound the memo's expressions
// per group and in total (see Memo).
const (
	maxDOP         = 50
	maxPasses      = 4
	memoExprLimit  = 10
	memoTotalLimit = 2048
)

// memoSizeBounds bucket final memo sizes; the finite bounds cover every size
// up to memoTotalLimit.
var memoSizeBounds = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// SetObs wires the optimizer's compile-time metrics into reg: rule firings
// per category, explorations by outcome, compile outcomes, memo sizes and
// interning collisions. Call
// it before the first Optimize; a nil registry leaves the optimizer
// uninstrumented (every instrument no-ops).
func (o *Optimizer) SetObs(reg *obs.Registry) {
	for c := range o.om.firings {
		o.om.firings[c] = reg.Counter("steerq_cascades_rule_firings_total", "category", Category(c).String())
	}
	o.om.exploredFresh = reg.Counter("steerq_cascades_explorations_total", "outcome", "fresh")
	o.om.exploredShared = reg.Counter("steerq_cascades_explorations_total", "outcome", "shared")
	o.om.ok = reg.Counter("steerq_cascades_compiles_total", "outcome", "ok")
	o.om.noPlan = reg.Counter("steerq_cascades_compiles_total", "outcome", "noplan")
	o.om.collisions = reg.Counter("steerq_cascades_intern_collisions_total")
	o.om.groups = reg.Histogram("steerq_cascades_memo_groups", memoSizeBounds)
	o.om.exprs = reg.Histogram("steerq_cascades_memo_exprs", memoSizeBounds)
}

// Result is the outcome of one compilation.
type Result struct {
	// Plan is the winning physical plan.
	Plan *plan.PhysNode
	// Cost is the estimated total plan cost (seconds of modeled latency).
	Cost float64
	// Signature is the rule signature: the set of rules that directly
	// contributed to Plan (Definition 3.2).
	Signature bitvec.Vector
	// Footprint is the decision footprint: the set of rule IDs whose
	// enabled-bit was read during this compilation (a superset of
	// Signature minus required rules). The search tree only ever branches
	// on these reads, so two configurations agreeing on every footprint
	// bit provably produce byte-identical results — the foundation of the
	// steering layer's equivalence-class memoization.
	Footprint bitvec.Vector
	// Config echoes the configuration used.
	Config bitvec.Vector
	// Groups and Exprs report memo size for diagnostics.
	Groups, Exprs int
}

// ErrNoPlan is returned when no physical plan exists under the given
// configuration — e.g. every implementation rule for some operator was
// disabled. The paper notes many configurations "may not compile successfully
// due to implicit dependencies" (§4); the discovery pipeline treats this
// error as a skipped candidate.
var ErrNoPlan = errors.New("cascades: no physical plan under this rule configuration")

// Optimize compiles the logical plan under cfg and returns the cheapest
// physical plan found, its estimated cost, and its rule signature: a Session
// of one compile.
//
// Optimize is safe for concurrent use: every call opens its own Session, and
// the Optimizer's own fields (Rules, Est, Coster) are read-only after
// construction. The discovery pipeline relies on this to fan job analyses out
// across workers.
func (o *Optimizer) Optimize(root *plan.Node, cfg bitvec.Vector) (*Result, error) {
	s := o.NewSession(root)
	defer s.Close()
	return s.Optimize(cfg, true)
}

// OptimizeCost is Optimize without plan materialization: the returned Result
// carries the same Cost, Signature, Footprint and memo statistics as an
// Optimize of the same inputs, but Plan is nil. Callers that keep only the
// costed verdict use it to skip building a physical node DAG nobody reads —
// the single largest allocation of a compile. The search itself is
// byte-identical to Optimize's; only the final extraction differs.
func (o *Optimizer) OptimizeCost(root *plan.Node, cfg bitvec.Vector) (*Result, error) {
	s := o.NewSession(root)
	defer s.Close()
	return s.Optimize(cfg, false)
}

// Session compiles one logical plan under many configurations, sharing what
// the configurations cannot tell apart. A compile has two phases and each
// reads its own bits: logical exploration reads only transformation-rule
// bits, the physical phase only implementation-rule bits. The session
// therefore keeps every explored memo, frozen, under cfg ∧ transformMask; a
// later compile agreeing on those bits runs its physical phase on the same
// memo — footprint induction applied to the explore prefix (DESIGN.md, "Two
// phases, two key sets"). The physical phase applies the same induction per
// group: each group's candidates and winners are filed with the bits their
// enumeration read, and a later compile agreeing on those bits reuses them,
// so a configuration one implementation bit away from an earlier one
// re-enumerates only the groups between the readers of that bit and the
// root. Every Result is what a fresh Optimize returns. One job's analysis —
// default trial, span probes, a few hundred candidates differing mostly in
// implementation bits, the selected trials — is the intended caller.
//
// A Session holds its arena until Close and is for one goroutine; the
// Optimizer stays safe for concurrent sessions.
type Session struct {
	o    *Optimizer
	root *plan.Node
	sc   *searchScratch
	// resolved and costed sum the compiles' candidate counts (search).
	resolved, costed int
}

// NewSession opens a session compiling root through an arena from the shared
// pool. Close it to hand the arena back.
func (o *Optimizer) NewSession(root *plan.Node) *Session {
	return &Session{o: o, root: root, sc: scratchPool.Get().(*searchScratch)}
}

// Close retires every memo of the session and returns its arena to the pool.
// Results already returned stay valid: they reference no arena memory.
func (se *Session) Close() {
	se.sc.retire()
	scratchPool.Put(se.sc)
	se.sc = nil
}

// Candidates reports how many implementation candidates the session's
// compiles resolved and how many of those were built and costed anew; the
// rest were candidates an earlier compile had built from the same prototype
// over the same child winners.
func (se *Session) Candidates() (resolved, costed int) { return se.resolved, se.costed }

// Optimize compiles the session's plan under cfg. With withPlan false the
// Result carries no Plan (see OptimizeCost); plan-less and with-plan compiles
// share memos freely.
func (se *Session) Optimize(cfg bitvec.Vector, withPlan bool) (*Result, error) {
	o, sc := se.o, se.sc
	if se.root == nil {
		return nil, errors.New("cascades: nil plan")
	}
	s := &search{o: o, cfg: cfg, scratch: sc, candBuf: sc.candBuf, propsBuf: sc.propsBuf, schemaBuf: sc.schemaBuf}
	// Hand the compile side back once the winner (if any) has been
	// extracted; the Result only references rule-owned payloads, never slab
	// memory.
	defer s.release()
	m := se.explored(s)
	s.filed = sc.filed[m]
	if s.filed == nil {
		s.filed = sc.heads.take(len(m.Groups), headChunkLen)
		sc.filed[m] = s.filed
	}
	if cap(sc.cur) < len(m.Groups) {
		sc.cur = make([]*groupSearch, len(m.Groups))
	}
	s.cur = sc.cur[:len(m.Groups)]
	// The physical phase reads exactly the root state's foot, whether this
	// compile enumerated it or found it filed.
	w, root := s.optimizeGroup(m.Root, plan.Distribution{Kind: plan.DistAny})
	s.footprint = s.footprint.Or(root.foot)
	se.resolved += s.resolved
	se.costed += s.costed
	o.om.groups.Observe(float64(len(m.Groups)))
	o.om.exprs.Observe(float64(m.TotalExprs()))
	if w == nil {
		o.om.noPlan.Inc()
		// The no-plan verdict still carries the footprint: any other
		// configuration agreeing on those bits fails identically, so
		// callers can share the negative outcome across the class.
		return &Result{
			Footprint: s.footprint,
			Config:    cfg,
			Groups:    len(m.Groups),
			Exprs:     m.TotalExprs(),
		}, fmt.Errorf("%w (root group %d)", ErrNoPlan, m.Root.ID)
	}
	o.om.ok.Inc()
	var p *plan.PhysNode
	var sig bitvec.Vector
	if withPlan {
		p, sig = s.extract(w)
	} else {
		sig = s.signature(w)
	}
	return &Result{
		Plan:      p,
		Cost:      w.total,
		Signature: sig,
		Footprint: s.footprint,
		Config:    cfg,
		Groups:    len(m.Groups),
		Exprs:     m.TotalExprs(),
	}, nil
}

// explored returns the frozen, explored memo s compiles on — an earlier
// compile's when the session holds one for the transform bits of s.cfg, else
// one built, explored and frozen now — and seeds s.footprint with the bits
// that exploration read.
func (se *Session) explored(s *search) *Memo {
	o, sc := se.o, se.sc
	key := s.cfg.And(o.Rules.transformMask).Key()
	if m, ok := sc.memos[key]; ok {
		o.om.exploredShared.Inc()
		s.m, s.footprint = m, m.footprint
		return m
	}
	o.om.exploredFresh.Inc()
	m := newMemoArena(se.root, o.Est, sc)
	s.m = m
	s.explore()
	m.footprint = s.footprint
	m.freeze()
	sc.memos[key] = m
	o.om.collisions.Add(m.Collisions())
	return m
}

// search carries per-compilation state.
type search struct {
	o       *Optimizer
	m       *Memo
	cfg     bitvec.Vector
	scratch *searchScratch

	// footprint accumulates the ID of every non-required rule whose
	// enabled-bit the search read (see ruleEnabled). Configurations that
	// agree on all footprint bits take the exact same path through
	// explore/optimizeGroup and so produce identical plans.
	footprint bitvec.Vector

	// filed heads the session's states of each group of m, by GroupID; cur
	// is the state each group resolved to in this compile. cur, the
	// candidate stack candBuf — a group's candidates while it enumerates, a
	// candidate's child winners while they resolve — and propsBuf and
	// schemaBuf — reusable scratch for DerivePropsFrom inputs, never
	// retained by the estimator — are on loan from the arena.
	filed     []*groupSearch
	cur       []*groupSearch
	candBuf   []*pexpr
	propsBuf  []cost.Props
	schemaBuf [][]plan.Column

	// firings counts the rule applications of this compile per category;
	// release adds them to the shared counters once.
	firings [NumCategories]uint64
	// resolved counts the candidates buildCandidate returned, costed those
	// it built and costed rather than reused.
	resolved, costed int
}

// explore runs transformation rules to a bounded fixpoint. Each
// (expression, rule) pair fires at most once; passes repeat so expressions
// created late still receive every rule.
func (s *search) explore() {
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for gi := 0; gi < len(s.m.Groups); gi++ {
			g := s.m.Groups[gi]
			for ei := 0; ei < len(g.Exprs); ei++ {
				e := g.Exprs[ei]
				for _, r := range s.o.Rules.transformsFor(e.Node.Op) {
					ri := r.Info()
					if !s.ruleEnabled(ri, &s.footprint) {
						continue
					}
					if e.firedRule(ri.ID) {
						continue
					}
					results := r.Apply(e, s.m)
					if len(results) == 0 {
						s.scratch.applied()
						continue // did not match; may match later passes
					}
					s.firings[ri.Category]++
					e.markFired(ri.ID)
					for _, rn := range results {
						if s.m.Intern(rn, g, e, ri.ID) {
							changed = true
						}
					}
					s.scratch.applied()
					if s.m.Full() {
						return
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// ruleEnabled reports whether a rule may fire under the search's
// configuration, recording every configuration-bit read in foot: the
// search's footprint during exploration, the enumerating group state's in
// the physical phase. Required rules ignore the configuration and leave no
// footprint: they behave identically under every configuration, so they
// cannot distinguish equivalence classes.
func (s *search) ruleEnabled(ri RuleInfo, foot *bitvec.Vector) bool {
	if ri.Category == Required {
		return true
	}
	foot.Set(ri.ID)
	return s.cfg.Get(ri.ID)
}
