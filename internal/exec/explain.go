package exec

import (
	"fmt"
	"io"
	"strings"

	"steerq/internal/cost"
	"steerq/internal/plan"
)

// NodeReport compares one operator's planned and actual behaviour.
type NodeReport struct {
	Op       plan.PhysOp
	Detail   string // table / exchange kind / processor
	DOP      int
	EstRows  float64
	TrueRows float64
	// MisestimateX is TrueRows/EstRows (>1 = underestimate).
	MisestimateX float64
	// Usage is the node's true resource usage including noise.
	Usage cost.OpUsage
}

// Report is a per-operator breakdown of one execution — the debugging surface
// an engineer reaches for when a steered plan surprises: where the optimizer
// mis-estimated, and where the time actually went.
type Report struct {
	Metrics Metrics
	Nodes   []NodeReport // pre-order, shared operators once
}

// Explain executes the plan like Run and additionally returns the
// per-operator breakdown — the same simulated execution, so Metrics is Run's
// bit for bit and the nodes' usages are the ones it was folded from.
func (x *Executor) Explain(p *plan.PhysNode, day int, tag string) Report {
	s := x.simulate(p, day, tag)
	rep := Report{Metrics: s.metrics, Nodes: make([]NodeReport, 0, len(s.nodes))}
	reported := make([]bool, len(s.nodes))
	var rec func(n *plan.PhysNode)
	rec = func(n *plan.PhysNode) {
		i := s.index(n)
		if reported[i] {
			return
		}
		reported[i] = true
		nr := NodeReport{
			Op:       n.Op,
			Detail:   nodeDetail(n),
			DOP:      max(n.Dist.DOP, 1),
			EstRows:  n.EstRows,
			TrueRows: s.nodes[i].props.Rows,
			Usage:    s.nodes[i].usage,
		}
		if nr.EstRows > 0 {
			nr.MisestimateX = nr.TrueRows / nr.EstRows
		}
		rep.Nodes = append(rep.Nodes, nr)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p)
	return rep
}

func nodeDetail(n *plan.PhysNode) string {
	switch n.Op {
	case plan.PhysExtract, plan.PhysRangeScan:
		return n.Table
	case plan.PhysExchange:
		return n.Exchange.String()
	case plan.PhysProcessImpl, plan.PhysReduceImpl:
		return n.Processor
	case plan.PhysOutputImpl:
		return n.OutputPath
	default:
		return ""
	}
}

// Render prints the report as an aligned table, worst mis-estimates flagged.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "runtime %.1fs cpu %.1fs io %.1fs vertices %d\n",
		r.Metrics.RuntimeSec, r.Metrics.CPUSec, r.Metrics.IOTimeSec, r.Metrics.Vertices)
	fmt.Fprintf(w, "%-16s %-24s %4s %12s %12s %8s %10s\n",
		"operator", "detail", "dop", "est rows", "true rows", "mis-x", "latency")
	for _, n := range r.Nodes {
		flag := ""
		if n.MisestimateX > 4 || (n.MisestimateX > 0 && n.MisestimateX < 0.25) {
			flag = " <!>"
		}
		detail := n.Detail
		if len(detail) > 24 {
			detail = "..." + detail[len(detail)-21:]
		}
		fmt.Fprintf(w, "%-16s %-24s %4d %12.0f %12.0f %8.2f %9.1fs%s\n",
			n.Op, detail, n.DOP, n.EstRows, n.TrueRows, n.MisestimateX, n.Usage.LatencySeconds, flag)
	}
}

// String renders the report to a string.
func (r Report) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}
