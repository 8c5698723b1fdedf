package cascades

import (
	"errors"
	"fmt"

	"steerq/internal/plan"
)

// Validate checks structural invariants of an extracted physical plan and
// returns every violation found, joined with errors.Join — a corrupted plan
// usually breaks several invariants at once, and seeing all of them beats
// re-running after each fix. It returns nil for a valid plan.
//
// The optimizer's own tests run every winning plan through it; the executor
// and the experiment harness run it on every plan when STEERQ_CHECK_PLANS is
// set (see exec.New).
//
// Checked invariants:
//
//   - every operator has the child count its kind requires;
//   - degrees of parallelism are at least 1, and at most maxDOP when maxDOP
//     is positive (singleton operators exactly 1);
//   - exchange kinds cohere with the distribution they deliver: a shuffle
//     delivers hash/random partitions, a gather a singleton at DOP 1, a
//     broadcast a broadcast distribution; hash distributions carry keys, and
//     an exchange's hash keys resolve within its schema;
//   - operators that consume co-partitioned inputs (hash join, merge join,
//     hash aggregation, reducers) actually receive hash- or
//     singleton-distributed children;
//   - schema-preserving operators (filters, sorts, exchanges, tops, UDO
//     processors/reducers, outputs) carry exactly their child's column-ID
//     set; computes produce their projection outputs; aggregations produce
//     key plus aggregate columns; joins only reference columns their
//     children produce;
//   - every operator carries a rule attribution (RuleID >= 0).
//
// maxDOP 0 turns the upper bound off, and production callers (the
// executor's plan check, faults.CompileAttempt) pass 0: the optimizer's
// per-operator cap does not bound every operator, because a virtual dataset
// keeps each branch's partitions in place and runs at the sum of its
// branches' DOPs (above 50 on real corpus plans). Only plans known to lack
// that shape — the optimizer's own test fixtures — can be checked against a
// cap.
func Validate(p *plan.PhysNode, maxDOP int) error {
	var errs []error
	report := func(n *plan.PhysNode, format string, args ...any) {
		errs = append(errs, fmt.Errorf("cascades: invalid plan at %v: %s", n.Op, fmt.Sprintf(format, args...)))
	}
	p.Walk(func(n *plan.PhysNode) {
		if want, ok := childArity(n.Op); ok && len(n.Children) != want {
			report(n, "has %d children, want %d", len(n.Children), want)
			return // remaining checks index into Children
		}
		dop := n.Dist.DOP
		if dop < 1 || (maxDOP > 0 && dop > maxDOP) {
			report(n, "DOP %d outside [1, %d]", dop, maxDOP)
		}
		validateDist(n, report)
		validateSchema(n, report)
		if n.RuleID < 0 {
			report(n, "operator without rule attribution")
		}
	})
	return errors.Join(errs...)
}

// reportFn accumulates one violation at a node.
type reportFn func(n *plan.PhysNode, format string, args ...any)

// validateDist checks distribution and exchange-kind coherence.
func validateDist(n *plan.PhysNode, report reportFn) {
	dop := n.Dist.DOP
	switch n.Op {
	case plan.PhysGlobalTop:
		if dop != 1 {
			report(n, "global top at DOP %d", dop)
		}
	case plan.PhysExchange:
		switch n.Exchange {
		case plan.ExchangeGather:
			if n.Dist.Kind != plan.DistSingleton || dop != 1 {
				report(n, "gather delivering %v", n.Dist)
			}
		case plan.ExchangeBroadcast:
			if n.Dist.Kind != plan.DistBroadcast {
				report(n, "broadcast delivering %v", n.Dist)
			}
		case plan.ExchangeShuffle:
			if n.Dist.Kind != plan.DistHash && n.Dist.Kind != plan.DistRandom {
				report(n, "shuffle delivering %v, want hash or random partitions", n.Dist)
			}
			if n.Dist.Kind == plan.DistHash && len(n.Dist.Keys) == 0 {
				report(n, "hash shuffle without keys")
			}
		default:
			// ExchangeInitial: the stored layout, no delivery constraint.
		}
	case plan.PhysHashJoin, plan.PhysMergeJoin:
		for i, c := range n.Children {
			if c.Dist.Kind != plan.DistHash && c.Dist.Kind != plan.DistSingleton {
				report(n, "re-partitioned join child %d delivered %v", i, c.Dist)
			}
		}
	case plan.PhysHashJoinAlt, plan.PhysLoopJoin:
		if n.Children[1].Dist.Kind != plan.DistBroadcast {
			report(n, "build side delivered %v, want broadcast", n.Children[1].Dist)
		}
	case plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysFinalHashAgg:
		c := n.Children[0]
		if len(n.GroupKeys) > 0 {
			if c.Dist.Kind != plan.DistHash && c.Dist.Kind != plan.DistSingleton {
				report(n, "keyed aggregation over %v input", c.Dist)
			}
		} else if c.Dist.Kind != plan.DistSingleton {
			report(n, "global aggregation over %v input", c.Dist)
		}
	case plan.PhysReduceImpl:
		c := n.Children[0]
		if c.Dist.Kind != plan.DistHash && c.Dist.Kind != plan.DistSingleton {
			report(n, "reducer over %v input", c.Dist)
		}
	default:
		// No distribution requirement beyond the generic checks below.
	}
	if n.Dist.Kind == plan.DistHash && len(n.Dist.Keys) == 0 {
		report(n, "hash distribution without keys")
	}
}

// validateSchema checks column-ID consistency between an operator's schema,
// its payload and its children.
func validateSchema(n *plan.PhysNode, report reportFn) {
	switch n.Op {
	case plan.PhysFilter, plan.PhysSort, plan.PhysExchange, plan.PhysLocalTop,
		plan.PhysGlobalTop, plan.PhysProcessImpl, plan.PhysReduceImpl,
		plan.PhysOutputImpl:
		// Schema-preserving operators: exactly the child's column IDs.
		if !sameIDSet(n.Schema, n.Children[0].Schema) {
			report(n, "schema %v does not preserve child schema %v",
				columnIDs(n.Schema), columnIDs(n.Children[0].Schema))
		}
	case plan.PhysCompute:
		outs := make([]plan.Column, len(n.Projs))
		for i, p := range n.Projs {
			outs[i] = p.Out
		}
		if !sameIDSet(n.Schema, outs) {
			report(n, "schema %v differs from projection outputs %v",
				columnIDs(n.Schema), columnIDs(outs))
		}
	case plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysPartialHashAgg, plan.PhysFinalHashAgg:
		outs := make([]plan.Column, 0, len(n.GroupKeys)+len(n.Aggs))
		outs = append(outs, n.GroupKeys...)
		for _, a := range n.Aggs {
			outs = append(outs, a.Out)
		}
		if !sameIDSet(n.Schema, outs) {
			report(n, "schema %v differs from group keys plus aggregate outputs %v",
				columnIDs(n.Schema), columnIDs(outs))
		}
	case plan.PhysHashJoin, plan.PhysHashJoinAlt, plan.PhysMergeJoin, plan.PhysLoopJoin:
		avail := make(map[plan.ColumnID]bool)
		for _, c := range n.Children {
			for _, col := range c.Schema {
				avail[col.ID] = true
			}
		}
		for _, col := range n.Schema {
			if !avail[col.ID] {
				report(n, "schema column %d produced by neither join child", col.ID)
			}
		}
	default:
		// Scans introduce columns; unions take the first branch's identity.
	}
	if n.Op == plan.PhysExchange && n.Dist.Kind == plan.DistHash {
		ids := make(map[plan.ColumnID]bool, len(n.Schema))
		for _, col := range n.Schema {
			ids[col.ID] = true
		}
		for _, k := range n.Dist.Keys {
			if !ids[k] {
				report(n, "hash key %d not in exchange schema %v", k, columnIDs(n.Schema))
			}
		}
	}
}

// sameIDSet reports whether two schemas carry the same set of column IDs
// (order and duplicates ignored).
func sameIDSet(a, b []plan.Column) bool {
	as := make(map[plan.ColumnID]bool, len(a))
	for _, c := range a {
		as[c.ID] = true
	}
	bs := make(map[plan.ColumnID]bool, len(b))
	for _, c := range b {
		bs[c.ID] = true
	}
	if len(as) != len(bs) {
		return false
	}
	for id := range as {
		if !bs[id] {
			return false
		}
	}
	return true
}

// columnIDs renders a schema as its column-ID list for diagnostics.
func columnIDs(schema []plan.Column) []plan.ColumnID {
	ids := make([]plan.ColumnID, len(schema))
	for i, c := range schema {
		ids[i] = c.ID
	}
	return ids
}

// childArity returns the exact child count an operator requires; ok is false
// for variadic operators (unions, the multi root).
func childArity(op plan.PhysOp) (int, bool) {
	switch op {
	case plan.PhysExtract, plan.PhysRangeScan:
		return 0, true
	case plan.PhysHashJoin, plan.PhysHashJoinAlt, plan.PhysMergeJoin, plan.PhysLoopJoin:
		return 2, true
	case plan.PhysUnionMerge, plan.PhysVirtualDataset, plan.PhysMultiImpl:
		return 0, false
	default:
		return 1, true
	}
}
