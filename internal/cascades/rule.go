package cascades

import (
	"fmt"

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
	// NumCategories is the number of categories: the length of an array
	// indexed by Category.
	NumCategories
)

var categoryNames = [NumCategories]string{"required", "off-by-default", "on-by-default", "implementation"}

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
	// MatchOp is the one logical operator the rule rewrites. The optimizer
	// consults the rule only on expressions of that operator (see
	// RuleSet.indexByOp), so Apply need not check it.
	MatchOp() plan.Op
	// Apply returns zero or more equivalent expressions for e, whose
	// operator is MatchOp(); none means the rule did not match. Returned
	// RNodes join e's group. Apply must not mutate e or the memo besides
	// allocating column IDs via m.NewColID and carving through the memo
	// (Node, Columns, RNode, Results, ...): everything it builds comes from
	// the carve methods, and the memo owns it. The returned list and RNodes
	// live until Intern has read them; the payloads live as long as the memo.
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
	// MatchOp is the one logical operator the rule implements; the
	// optimizer consults the rule only on expressions of that operator.
	MatchOp() plan.Op
	// Implement returns candidates for e, whose operator is MatchOp(), or
	// nil when the rule does not apply to e.
	//
	// Implement takes no configuration and runs on a frozen memo (see
	// Session): it must not Intern, must not call NewColID, and must be a
	// pure function of e — its payload, its child groups' schemas and
	// statistics. The optimizer calls it at most once per expression and
	// hands the returned protos, unmodified, to every compile sharing the
	// memo, so a rule must not retain or later mutate what it returned.
	//
	// The protos, their list, child requirements and hash keys are carved
	// through the memo (Protos, Dists, HashDist) and the memo owns them:
	// they live until the session closes, and extraction copies out what a
	// returned plan keeps. Payload nodes are e's own or carved too.
	Implement(e *MExpr, m *Memo) []*PhysProto
}

// RuleSet is the rule catalog handed to the optimizer.
type RuleSet struct {
	Transforms []TransformRule
	Implements []ImplementRule

	infos map[int]RuleInfo

	// The rules of each operator, indexed by MatchOp and in catalog order:
	// the only operator filter of the explore and implement loops. Consulting
	// a rule only on its operator skips dead Apply/Implement calls and keeps
	// the decision footprint (the enabled-bits a compile reads — see
	// search.ruleEnabled) tight: a rule whose operator never appears in the
	// memo leaves no footprint bit, so more configurations fall into one
	// equivalence class.
	transformsByOp [][]TransformRule
	implementsByOp [][]ImplementRule

	// transformMask holds the IDs of the non-required rules in Transforms:
	// every configuration bit logical exploration can read, hence the bits
	// that key a Session's explored memos.
	transformMask bitvec.Vector

	// defaultConfig and nonRequired are DefaultConfig's and NonRequired's
	// values, computed once by NewRuleSet.
	defaultConfig, nonRequired bitvec.Vector
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

// indexByOp builds the per-operator rule lists, the transform mask, the
// default configuration and the non-required rules.
func (rs *RuleSet) indexByOp() {
	for id, ri := range rs.infos {
		if ri.Category != OffByDefault {
			rs.defaultConfig.Set(id)
		}
		if ri.Category != Required {
			rs.nonRequired.Set(id)
		}
	}
	for _, r := range rs.Transforms {
		if ri := r.Info(); ri.Category != Required {
			rs.transformMask.Set(ri.ID)
		}
	}
	rs.transformsByOp = byOp(rs.Transforms)
	rs.implementsByOp = byOp(rs.Implements)
}

// byOp groups rules by MatchOp, keeping catalog order within each operator.
func byOp[R interface{ MatchOp() plan.Op }](rules []R) [][]R {
	var out [][]R
	for _, r := range rules {
		op := int(r.MatchOp())
		for len(out) <= op {
			out = append(out, nil)
		}
		out[op] = append(out[op], r)
	}
	return out
}

// transformsFor returns the transforms to consult on an expression with the
// given operator.
func (rs *RuleSet) transformsFor(op plan.Op) []TransformRule {
	if int(op) < len(rs.transformsByOp) {
		return rs.transformsByOp[op]
	}
	return nil
}

// implementsFor is transformsFor for implementation rules.
func (rs *RuleSet) implementsFor(op plan.Op) []ImplementRule {
	if int(op) < len(rs.implementsByOp) {
		return rs.implementsByOp[op]
	}
	return nil
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
func (rs *RuleSet) DefaultConfig() bitvec.Vector { return rs.defaultConfig }

// Names returns the names of the rule IDs, in order; an ID the catalog does
// not know (a stray bit) is named "rule#<id>".
func (rs *RuleSet) Names(ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if ri, ok := rs.infos[id]; ok {
			out = append(out, ri.Name)
		} else {
			out = append(out, fmt.Sprintf("rule#%d", id))
		}
	}
	return out
}

// NonRequired returns the set of all rules outside the Required category —
// the "learnable" rules the configuration search may toggle (the paper's 219
// non-required rules).
func (rs *RuleSet) NonRequired() bitvec.Vector { return rs.nonRequired }
