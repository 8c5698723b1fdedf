package cascades

import (
	"steerq/internal/bitvec"
	"steerq/internal/plan"
)

// extract materializes the winning pexpr tree into a plan.PhysNode DAG and
// collects the rule signature: every implementation and enforcer rule that
// produced an operator in the plan plus every transformation rule on the
// derivation chain of the logical expressions those operators implement.
func (s *search) extract(w *winner) (*plan.PhysNode, bitvec.Vector) {
	// Size the plan first: its nodes and its child lists each come out of
	// one allocation.
	nodes, edges := 0, 0
	epoch := s.walk()
	var size func(p *pexpr)
	size = func(p *pexpr) {
		if p.mark == epoch {
			return
		}
		p.mark = epoch
		nodes, edges = nodes+1, edges+len(p.children)
		for _, c := range p.children {
			size(c)
		}
	}
	size(w)
	nodeBuf := make([]plan.PhysNode, nodes)
	childBuf := make([]*plan.PhysNode, edges)

	var sig bitvec.Vector
	epoch = s.walk()
	var rec func(p *pexpr) *plan.PhysNode
	rec = func(p *pexpr) *plan.PhysNode {
		if p.mark == epoch {
			return p.built
		}
		p.mark = epoch
		if p.ruleID >= 0 {
			sig.Set(p.ruleID)
		}
		if p.lexpr != nil {
			sig = sig.Or(p.lexpr.Provenance)
		}
		n := &nodeBuf[0]
		nodeBuf = nodeBuf[1:]
		*n = plan.PhysNode{
			Op:       p.op,
			Schema:   p.node.Schema,
			Dist:     p.outDist,
			EstRows:  p.props.Rows,
			EstCost:  p.usage.LatencySeconds,
			RuleID:   p.ruleID,
			Exchange: p.exchange,
		}
		if p.lexpr != nil {
			// The canonical schema of the implemented group, not the
			// payload's (join commutes may reorder payload columns).
			n.Schema = p.lexpr.Group.Schema
		}
		s.scratch.copyPayload(n, p.node)
		p.built = n
		k := len(p.children)
		n.Children, childBuf = childBuf[:k:k], childBuf[k:]
		for i, c := range p.children {
			n.Children[i] = rec(c)
		}
		n.TotalCost = n.EstCost
		// Count each distinct child subtree once; operators have few
		// children, so a linear dup scan beats a per-node map.
		for i, c := range n.Children {
			dup := false
			for _, prev := range n.Children[:i] {
				if prev == c {
					dup = true
					break
				}
			}
			if !dup {
				n.TotalCost += c.TotalCost
			}
		}
		return n
	}
	root := rec(w)
	root.TotalCost = w.total
	return root, sig
}

// signature collects the rule signature of the winning pexpr tree without
// materializing any plan nodes — the plan-less sibling of extract, used by
// OptimizeCost. It visits each distinct pexpr exactly once, like extract, so
// the resulting bit vector is identical to the Signature an extract of the
// same winner would report.
func (s *search) signature(w *winner) bitvec.Vector {
	var sig bitvec.Vector
	epoch := s.walk()
	var rec func(p *pexpr)
	rec = func(p *pexpr) {
		if p.mark == epoch {
			return
		}
		p.mark = epoch
		if p.ruleID >= 0 {
			sig.Set(p.ruleID)
		}
		if p.lexpr != nil {
			sig = sig.Or(p.lexpr.Provenance)
		}
		for _, c := range p.children {
			rec(c)
		}
	}
	rec(w)
	return sig
}

// walk opens a new visit epoch: every pexpr whose mark differs from the
// returned stamp is unvisited, whichever walk of the session marked it last.
func (s *search) walk() uint32 {
	s.scratch.epoch++
	return s.scratch.epoch
}

// copyPayload fills dst's schema, distribution and payload fields from src,
// the operator's arena payload: what the arena owns is copied out (kept,
// keptExpr) and the rest — strings, the input plan's slices and expressions —
// is shared.
func (sc *searchScratch) copyPayload(dst *plan.PhysNode, src *plan.Node) {
	dst.Schema = kept(&sc.cols, dst.Schema)
	dst.Dist.Keys = kept(&sc.ids, dst.Dist.Keys)
	dst.Table = src.Table
	dst.Pred = sc.keptExpr(src.Pred)
	dst.Projs = kept(&sc.projs, src.Projs)
	for i, p := range dst.Projs {
		if e := sc.keptExpr(p.Expr); e != p.Expr {
			if &dst.Projs[0] == &src.Projs[0] { // still the payload's list
				dst.Projs = append([]plan.Projection(nil), src.Projs...)
			}
			dst.Projs[i].Expr = e
		}
	}
	dst.GroupKeys = kept(&sc.cols, src.GroupKeys)
	dst.Aggs = kept(&sc.aggs, src.Aggs)
	for i, a := range dst.Aggs {
		if e := sc.keptExpr(a.Arg); e != a.Arg {
			if &dst.Aggs[0] == &src.Aggs[0] { // still the payload's list
				dst.Aggs = append([]plan.Agg(nil), src.Aggs...)
			}
			dst.Aggs[i].Arg = e
		}
	}
	dst.Processor = src.Processor
	dst.ReduceKeys = kept(&sc.cols, src.ReduceKeys)
	dst.TopN = src.TopN
	dst.SortKeys = kept(&sc.sortKeys, src.SortKeys)
	dst.OutputPath = src.OutputPath
}
