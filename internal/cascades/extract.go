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
	var sig bitvec.Vector
	epoch := s.walk()
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
		n := &plan.PhysNode{
			Op:       p.op,
			Schema:   p.node.Schema,
			Dist:     p.outDist,
			EstRows:  p.rows,
			EstCost:  p.usage.LatencySeconds,
			RuleID:   p.ruleID,
			Exchange: p.exchange,
		}
		if p.lexpr != nil {
			// The canonical schema of the implemented group, not the
			// payload's (join commutes may reorder payload columns).
			n.Schema = p.lexpr.Group.Schema
		}
		copyPayload(n, p.node)
		p.built = n
		n.Children = make([]*plan.PhysNode, len(p.children))
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

func copyPayload(dst *plan.PhysNode, src *plan.Node) {
	dst.Table = src.Table
	dst.Pred = src.Pred
	dst.Projs = src.Projs
	dst.GroupKeys = src.GroupKeys
	dst.Aggs = src.Aggs
	dst.Processor = src.Processor
	dst.ReduceKeys = src.ReduceKeys
	dst.TopN = src.TopN
	dst.SortKeys = src.SortKeys
	dst.OutputPath = src.OutputPath
}
