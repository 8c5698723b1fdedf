package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Op enumerates logical operators of the SCOPE-like algebra.
type Op int

// Logical operators. The set mirrors the operator classes the paper's rules
// act on: relational operators, SCOPE-specific UNION ALL, and user-defined
// PROCESS/REDUCE operators (§3.2).
const (
	OpGet      Op = iota // scan of a named input stream
	OpSelect             // filter by a predicate
	OpProject            // projection / computed columns
	OpJoin               // inner equi/theta join
	OpGroupBy            // grouping and aggregation
	OpUnionAll           // bag union of same-schema inputs (n-ary)
	OpProcess            // row-wise user-defined operator
	OpReduce             // per-key user-defined operator
	OpTop                // top-N by sort keys
	OpOutput             // write result to a path
	OpMulti              // virtual root over multiple outputs of one job
)

var opNames = [...]string{
	"Get", "Select", "Project", "Join", "GroupBy", "UnionAll",
	"Process", "Reduce", "Top", "Output", "Multi",
}

func (o Op) String() string { return opNames[o] }

// Projection is one output expression of a Project operator.
type Projection struct {
	Expr *Expr
	Out  Column
}

// Agg is one aggregate computed by a GroupBy operator.
type Agg struct {
	Fn  string // COUNT, SUM, MIN, MAX, AVG
	Arg *Expr  // nil for COUNT(*)
	Out Column
}

// SortKey is one ordering column with direction.
type SortKey struct {
	Col  Column
	Desc bool
}

// Node is a logical operator. Nodes form DAGs: a node consumed by several
// parents appears once and is shared.
type Node struct {
	Op       Op
	Children []*Node

	// Schema lists the output columns of the operator.
	Schema []Column

	// Operator payloads; which fields are meaningful depends on Op.
	Table      string       // Get: input stream name
	Pred       *Expr        // Select: filter; Join: join condition
	Projs      []Projection // Project
	GroupKeys  []Column     // GroupBy
	Aggs       []Agg        // GroupBy
	Processor  string       // Process, Reduce: UDO name
	ReduceKeys []Column     // Reduce
	TopN       int          // Top
	SortKeys   []SortKey    // Top
	OutputPath string       // Output
}

// ColumnSet returns the set of column IDs produced by the node.
func (n *Node) ColumnSet() map[ColumnID]bool {
	set := make(map[ColumnID]bool, len(n.Schema))
	for _, c := range n.Schema {
		set[c.ID] = true
	}
	return set
}

// Walk visits every node of the DAG exactly once in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	seen := make(map[*Node]bool)
	var rec func(*Node)
	rec = func(m *Node) {
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

// Count returns the number of distinct operator nodes in the DAG.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Inputs returns the sorted distinct input stream names scanned by the DAG.
func (n *Node) Inputs() []string {
	set := make(map[string]bool)
	n.Walk(func(m *Node) {
		if m.Op == OpGet {
			set[m.Table] = true
		}
	})
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String renders the DAG as an indented tree; shared nodes are expanded at
// first visit and referenced by ordinal afterwards.
func (n *Node) String() string {
	var b strings.Builder
	ids := make(map[*Node]int)
	var rec func(m *Node, depth int)
	rec = func(m *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if id, ok := ids[m]; ok {
			fmt.Fprintf(&b, "^ref=%d\n", id)
			return
		}
		ids[m] = len(ids)
		fmt.Fprintf(&b, "%s%s\n", m.Op, m.payload())
		for _, c := range m.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

func (n *Node) payload() string {
	switch n.Op {
	case OpGet:
		return fmt.Sprintf("(%s)", n.Table)
	case OpSelect, OpJoin:
		return fmt.Sprintf("(%s)", n.Pred)
	case OpProject:
		parts := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			parts[i] = fmt.Sprintf("%s AS %s", p.Expr, p.Out.Name)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case OpGroupBy:
		keys := make([]string, len(n.GroupKeys))
		for i, k := range n.GroupKeys {
			keys[i] = k.Name
		}
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = a.Arg.String()
			}
			aggs[i] = fmt.Sprintf("%s(%s) AS %s", a.Fn, arg, a.Out.Name)
		}
		return fmt.Sprintf("(keys=[%s] aggs=[%s])", strings.Join(keys, ","), strings.Join(aggs, ","))
	case OpProcess:
		return fmt.Sprintf("(%s)", n.Processor)
	case OpReduce:
		keys := make([]string, len(n.ReduceKeys))
		for i, k := range n.ReduceKeys {
			keys[i] = k.Name
		}
		return fmt.Sprintf("(%s ON %s)", n.Processor, strings.Join(keys, ","))
	case OpTop:
		return fmt.Sprintf("(%d)", n.TopN)
	case OpOutput:
		return fmt.Sprintf("(%s)", n.OutputPath)
	default:
		return "" // OpUnionAll, OpMulti: children carry all the information
	}
}
