package cascades

import (
	"fmt"
	"sort"

	"steerq/internal/bitvec"
	"steerq/internal/plan"
)

// Category classifies optimizer rules per §3.2 of the paper.
type Category int

// Rule categories (Table 2).
const (
	// Required rules are necessary for correctness (EnforceExchange,
	// BuildOutput, ...). They ignore the rule configuration.
	Required Category = iota
	// OffByDefault rules are experimental or unsafe under mis-estimates
	// (the CorrelatedJoinOnUnion family, ...). Disabled in the default
	// configuration.
	OffByDefault
	// OnByDefault rules are the bulk of optimization rules: rewrites,
	// join order, aggregation and sorting rules.
	OnByDefault
	// Implementation rules pick physical implementations of logical
	// operators; at least one per operator type must stay enabled for a
	// job to compile.
	Implementation
)

var categoryNames = [...]string{"required", "off-by-default", "on-by-default", "implementation"}

func (c Category) String() string { return categoryNames[c] }

// RuleInfo is the identity and classification of one rule. IDs are stable
// across the catalog and index rule configurations and signatures
// (bit i of a bitvec.Vector corresponds to rule ID i).
type RuleInfo struct {
	ID       int
	Name     string
	Category Category
}

func (ri RuleInfo) String() string { return fmt.Sprintf("%s#%d(%s)", ri.Name, ri.ID, ri.Category) }

// TransformRule rewrites a logical expression into equivalent logical
// expressions.
type TransformRule interface {
	Info() RuleInfo
	// Apply returns zero or more equivalent expressions for e. Returned
	// RNodes join e's group. Apply must not mutate e or the memo besides
	// allocating column IDs via m.NewColID.
	Apply(e *MExpr, m *Memo) []*RNode
}

// PhysProto describes one physical implementation candidate produced by an
// implementation rule.
type PhysProto struct {
	// Op is the physical operator.
	Op plan.PhysOp
	// Node is the operator payload (usually the matched logical payload,
	// possibly adjusted).
	Node *plan.Node
	// ChildReq lists the required distribution per child (DOP fields are
	// ignored; the engine derives degrees of parallelism).
	ChildReq []plan.Distribution
	// OutDist is the distribution the operator delivers given satisfied
	// child requirements.
	OutDist plan.Distribution
	// BuildIdx marks the build side for join operators (-1 otherwise).
	BuildIdx int
	// NeedsSort asks the engine to insert a Sort enforcer on each child
	// (merge join, stream aggregation).
	NeedsSort bool
	// LocalPre, when non-zero, asks the engine to run this per-partition
	// operator on child 0 before enforcing the child requirement: the
	// local phase of two-phase aggregation or top-N.
	LocalPre plan.PhysOp
}

// ImplementRule produces physical implementation candidates for a logical
// expression.
type ImplementRule interface {
	Info() RuleInfo
	// Implement returns candidates for e, or nil when the rule does not
	// apply to e's operator.
	//
	// Implement takes no configuration and runs on a frozen memo (see
	// Session): it must not Intern, must not call NewColID, and must be a
	// pure function of e — its payload, its child groups' schemas and
	// statistics. The optimizer calls it at most once per expression and
	// hands the returned protos, unmodified, to every compile sharing the
	// memo, so a rule must not retain or later mutate what it returned.
	Implement(e *MExpr, m *Memo) []*PhysProto
}

// OpMatcher is an optional interface on rules that only ever match one
// logical operator (every catalog rule opens with `if e.Node.Op != plan.OpX
// { return nil }`). Declaring the operator lets the optimizer consult the
// rule only on expressions it could match, which both skips the dead
// Apply/Implement calls and keeps the decision footprint (the set of
// enabled-bits actually read — see search.ruleEnabled) tight: a rule whose
// operator never appears in the memo leaves no footprint bit, so more
// configurations fall into the same equivalence class.
//
// The contract is strict: for any expression whose operator differs from
// MatchOp(), Apply/Implement must return nil without side effects. Rules
// that omit the interface are consulted on every expression, exactly as
// before.
type OpMatcher interface {
	MatchOp() plan.Op
}

// RuleSet is the rule catalog handed to the optimizer.
type RuleSet struct {
	Transforms []TransformRule
	Implements []ImplementRule

	infos map[int]RuleInfo

	// Per-operator projections of Transforms/Implements, built by
	// NewRuleSet from the OpMatcher declarations. Each list preserves the
	// catalog order and includes every rule that omits OpMatcher, so
	// iterating a projection is behaviorally identical to iterating the
	// full slice. The *Any lists serve operators no pinned rule matches.
	transformsByOp map[plan.Op][]TransformRule
	transformsAny  []TransformRule
	implementsByOp map[plan.Op][]ImplementRule
	implementsAny  []ImplementRule

	// transformMask holds the IDs of the non-required rules in Transforms:
	// every configuration bit logical exploration can read, hence the bits
	// that key a Session's explored memos.
	transformMask bitvec.Vector
}

// NewRuleSet assembles a rule set and verifies rule IDs are unique and in
// [0, bitvec.Width).
func NewRuleSet(transforms []TransformRule, implements []ImplementRule, extra []RuleInfo) (*RuleSet, error) {
	rs := &RuleSet{Transforms: transforms, Implements: implements, infos: make(map[int]RuleInfo)}
	add := func(ri RuleInfo) error {
		if ri.ID < 0 || ri.ID >= bitvec.Width {
			return fmt.Errorf("cascades: rule %s: ID out of range", ri)
		}
		if prev, dup := rs.infos[ri.ID]; dup {
			return fmt.Errorf("cascades: rule ID %d claimed by both %s and %s", ri.ID, prev.Name, ri.Name)
		}
		rs.infos[ri.ID] = ri
		return nil
	}
	for _, r := range transforms {
		if err := add(r.Info()); err != nil {
			return nil, err
		}
	}
	for _, r := range implements {
		if err := add(r.Info()); err != nil {
			return nil, err
		}
	}
	for _, ri := range extra {
		if err := add(ri); err != nil {
			return nil, err
		}
	}
	rs.indexByOp()
	return rs, nil
}

// ruleOps collects the sorted set of operators pinned by OpMatcher rules in
// a slice (sorted so the projection maps are built in a deterministic
// order, though their content is order-independent either way).
func ruleOps(match func(i int) (plan.Op, bool), n int) []plan.Op {
	seen := make(map[plan.Op]bool, n)
	ops := make([]plan.Op, 0, n)
	for i := 0; i < n; i++ {
		if op, ok := match(i); ok && !seen[op] {
			seen[op] = true
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// indexByOp builds the per-operator rule projections and the transform mask.
func (rs *RuleSet) indexByOp() {
	for _, r := range rs.Transforms {
		if ri := r.Info(); ri.Category != Required {
			rs.transformMask.Set(ri.ID)
		}
	}
	tOps := ruleOps(func(i int) (plan.Op, bool) {
		m, ok := rs.Transforms[i].(OpMatcher)
		if !ok {
			return 0, false
		}
		return m.MatchOp(), true
	}, len(rs.Transforms))
	rs.transformsByOp = make(map[plan.Op][]TransformRule, len(tOps))
	rs.transformsAny = make([]TransformRule, 0, len(rs.Transforms))
	for _, r := range rs.Transforms {
		if _, ok := r.(OpMatcher); !ok {
			rs.transformsAny = append(rs.transformsAny, r)
		}
	}
	for _, op := range tOps {
		l := make([]TransformRule, 0, len(rs.Transforms))
		for _, r := range rs.Transforms {
			if m, ok := r.(OpMatcher); !ok || m.MatchOp() == op {
				l = append(l, r)
			}
		}
		rs.transformsByOp[op] = l
	}
	iOps := ruleOps(func(i int) (plan.Op, bool) {
		m, ok := rs.Implements[i].(OpMatcher)
		if !ok {
			return 0, false
		}
		return m.MatchOp(), true
	}, len(rs.Implements))
	rs.implementsByOp = make(map[plan.Op][]ImplementRule, len(iOps))
	rs.implementsAny = make([]ImplementRule, 0, len(rs.Implements))
	for _, r := range rs.Implements {
		if _, ok := r.(OpMatcher); !ok {
			rs.implementsAny = append(rs.implementsAny, r)
		}
	}
	for _, op := range iOps {
		l := make([]ImplementRule, 0, len(rs.Implements))
		for _, r := range rs.Implements {
			if m, ok := r.(OpMatcher); !ok || m.MatchOp() == op {
				l = append(l, r)
			}
		}
		rs.implementsByOp[op] = l
	}
}

// transformsFor returns the transforms worth consulting on an expression
// with the given operator. Falls back to the full slice on rule sets built
// as raw literals (tests) that never ran indexByOp.
func (rs *RuleSet) transformsFor(op plan.Op) []TransformRule {
	if rs.transformsByOp == nil {
		return rs.Transforms
	}
	if l, ok := rs.transformsByOp[op]; ok {
		return l
	}
	return rs.transformsAny
}

// implementsFor is transformsFor for implementation rules.
func (rs *RuleSet) implementsFor(op plan.Op) []ImplementRule {
	if rs.implementsByOp == nil {
		return rs.Implements
	}
	if l, ok := rs.implementsByOp[op]; ok {
		return l
	}
	return rs.implementsAny
}

// Info returns the metadata of a rule ID; ok is false for unknown IDs.
func (rs *RuleSet) Info(id int) (RuleInfo, bool) {
	ri, ok := rs.infos[id]
	return ri, ok
}

// Infos returns all registered rule infos, ordered by ID.
func (rs *RuleSet) Infos() []RuleInfo {
	out := make([]RuleInfo, 0, len(rs.infos))
	for id := 0; id < bitvec.Width; id++ {
		if ri, ok := rs.infos[id]; ok {
			out = append(out, ri)
		}
	}
	return out
}

// DefaultConfig returns the default rule configuration (Definition 3.1):
// every rule enabled except the off-by-default category.
func (rs *RuleSet) DefaultConfig() bitvec.Vector {
	var v bitvec.Vector
	for id, ri := range rs.infos {
		if ri.Category != OffByDefault {
			v.Set(id)
		}
	}
	return v
}

// NonRequiredIDs returns the IDs of all rules outside the Required category
// — the "learnable" rules the configuration search may toggle (the paper's
// 219 non-required rules).
func (rs *RuleSet) NonRequiredIDs() []int {
	var out []int
	for id := 0; id < bitvec.Width; id++ {
		if ri, ok := rs.infos[id]; ok && ri.Category != Required {
			out = append(out, id)
		}
	}
	return out
}
