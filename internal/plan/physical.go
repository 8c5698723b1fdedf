package plan

import (
	"fmt"
	"strings"
)

// PhysOp enumerates physical operators.
type PhysOp int

// Physical operators. Several correspond one-to-one with the implementation
// rules of Table 2 (HashJoinImpl1, UnionAllToVirtualDataset, ...); Exchange
// is produced by the EnforceExchange required rule.
const (
	PhysExtract        PhysOp = iota // partitioned scan of an input stream
	PhysFilter                       // predicate evaluation
	PhysCompute                      // projection / scalar computation
	PhysHashJoin                     // hash join, build = smaller estimated side
	PhysHashJoinAlt                  // hash join variant, build = right side always ("JoinImpl2")
	PhysMergeJoin                    // sort-merge join
	PhysLoopJoin                     // (indexed) nested-loop join / apply
	PhysHashAgg                      // hash aggregation
	PhysStreamAgg                    // sorted-stream aggregation
	PhysPartialHashAgg               // local pre-aggregation (two-phase)
	PhysFinalHashAgg                 // global phase of two-phase aggregation
	PhysUnionMerge                   // physical union: reads all branches, emits one stream
	PhysVirtualDataset               // virtual union: consumers read branches in place
	PhysProcessImpl                  // user-defined row processor
	PhysReduceImpl                   // user-defined key reducer
	PhysLocalTop                     // per-partition top-N
	PhysGlobalTop                    // final top-N
	PhysSort                         // full sort (enforcer for merge join / stream agg)
	PhysExchange                     // data movement (shuffle/broadcast/gather)
	PhysOutputImpl                   // writer
	PhysMultiImpl                    // virtual root
	PhysRangeScan                    // scan restricted by a pushed-down range predicate
)

var physNames = [...]string{
	"Extract", "Filter", "Compute", "HashJoin", "HashJoinAlt", "MergeJoin",
	"LoopJoin", "HashAgg", "StreamAgg", "PartialHashAgg", "FinalHashAgg",
	"UnionMerge", "VirtualDataset", "ProcessImpl", "ReduceImpl", "LocalTop",
	"GlobalTop", "Sort", "Exchange", "OutputImpl", "MultiImpl", "RangeScan",
}

func (o PhysOp) String() string { return physNames[o] }

// DistKind enumerates data distribution properties of a physical stream.
type DistKind int

// Distribution kinds.
const (
	DistAny       DistKind = iota // unconstrained (only valid as a requirement)
	DistRandom                    // partitioned with no key guarantee
	DistHash                      // hash-partitioned on Keys
	DistBroadcast                 // full copy on every partition
	DistSingleton                 // single partition
)

var distNames = [...]string{"any", "random", "hash", "broadcast", "singleton"}

func (d DistKind) String() string { return distNames[d] }

// Distribution describes how a physical stream is partitioned across
// containers, and at what degree of parallelism.
type Distribution struct {
	Kind DistKind
	Keys []ColumnID // hash keys when Kind == DistHash
	DOP  int        // number of partitions (1 for singleton/broadcast targets)
}

// Satisfies reports whether a delivered distribution d meets requirement r.
func (d Distribution) Satisfies(r Distribution) bool {
	switch r.Kind {
	case DistAny:
		return true
	case DistSingleton:
		return d.Kind == DistSingleton
	case DistBroadcast:
		return d.Kind == DistBroadcast
	case DistRandom:
		return d.Kind == DistRandom || d.Kind == DistHash || d.Kind == DistSingleton
	case DistHash:
		if d.Kind == DistSingleton {
			return true // one partition trivially co-locates all keys
		}
		if d.Kind != DistHash || len(d.Keys) != len(r.Keys) {
			return false
		}
		for i := range d.Keys {
			if d.Keys[i] != r.Keys[i] {
				return false
			}
		}
		return d.DOP == r.DOP || r.DOP == 0
	}
	return false
}

func (d Distribution) String() string {
	if d.Kind == DistHash {
		keys := make([]string, len(d.Keys))
		for i, k := range d.Keys {
			keys[i] = fmt.Sprint(k)
		}
		return fmt.Sprintf("hash(%s)x%d", strings.Join(keys, ","), d.DOP)
	}
	if d.DOP > 0 {
		return fmt.Sprintf("%sx%d", distNames[d.Kind], d.DOP)
	}
	return distNames[d.Kind]
}

// ExchangeKind enumerates data movement operations.
type ExchangeKind int

// Exchange kinds.
const (
	ExchangeShuffle   ExchangeKind = iota // hash-repartition on keys
	ExchangeBroadcast                     // replicate to every consumer partition
	ExchangeGather                        // merge all partitions into one
	ExchangeInitial                       // initial partitioned read layout
)

var exchangeNames = [...]string{"shuffle", "broadcast", "gather", "initial"}

func (e ExchangeKind) String() string { return exchangeNames[e] }

// PhysNode is a physical operator. Like logical nodes, physical plans are
// DAGs with shared subtrees.
type PhysNode struct {
	Op       PhysOp
	Children []*PhysNode
	Schema   []Column

	// Payload fields, meaningful per Op (mirrors Node).
	Table      string
	Pred       *Expr
	Projs      []Projection
	GroupKeys  []Column
	Aggs       []Agg
	Processor  string
	ReduceKeys []Column
	TopN       int
	SortKeys   []SortKey
	OutputPath string

	// Exchange payload.
	Exchange ExchangeKind

	// Dist is the output distribution of this operator.
	Dist Distribution

	// EstRows is the optimizer's estimated output cardinality.
	EstRows float64
	// EstCost is the operator-local estimated cost.
	EstCost float64
	// TotalCost is EstCost plus the total cost of all children
	// (shared children counted once).
	TotalCost float64

	// RuleID identifies the optimizer rule whose application produced this
	// operator; the union of RuleID over a final plan's operators is the
	// job's rule signature (Definition 3.2).
	RuleID int
}

// Walk visits every node of the physical DAG exactly once in pre-order.
func (n *PhysNode) Walk(fn func(*PhysNode)) {
	seen := make(map[*PhysNode]bool)
	var rec func(*PhysNode)
	rec = func(m *PhysNode) {
		if m == nil || seen[m] {
			return
		}
		seen[m] = true
		fn(m)
		for _, c := range m.Children {
			rec(c)
		}
	}
	rec(n)
}

// Count returns the number of distinct physical operators in the DAG.
func (n *PhysNode) Count() int {
	c := 0
	n.Walk(func(*PhysNode) { c++ })
	return c
}

// String renders the physical DAG with distributions, estimated rows and
// costs; shared nodes are referenced by ordinal after first expansion.
func (n *PhysNode) String() string {
	var b strings.Builder
	ids := make(map[*PhysNode]int)
	var rec func(m *PhysNode, depth int)
	rec = func(m *PhysNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if id, ok := ids[m]; ok {
			fmt.Fprintf(&b, "^ref=%d\n", id)
			return
		}
		ids[m] = len(ids)
		fmt.Fprintf(&b, "%s%s [%s rows=%.0f cost=%.1f]\n", m.Op, m.physPayload(), m.Dist, m.EstRows, m.EstCost)
		for _, c := range m.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

func (n *PhysNode) physPayload() string {
	switch n.Op {
	case PhysExtract, PhysRangeScan:
		return fmt.Sprintf("(%s)", n.Table)
	case PhysFilter:
		return fmt.Sprintf("(%s)", n.Pred)
	case PhysExchange:
		return fmt.Sprintf("(%s)", n.Exchange)
	case PhysProcessImpl, PhysReduceImpl:
		return fmt.Sprintf("(%s)", n.Processor)
	case PhysOutputImpl:
		return fmt.Sprintf("(%s)", n.OutputPath)
	case PhysLocalTop, PhysGlobalTop:
		return fmt.Sprintf("(%d)", n.TopN)
	default:
		return ""
	}
}
