package rules

import (
	"steerq/internal/cascades"
	"steerq/internal/plan"
)

func anyDist() plan.Distribution       { return plan.Distribution{Kind: plan.DistAny} }
func randomDist() plan.Distribution    { return plan.Distribution{Kind: plan.DistRandom} }
func singletonDist() plan.Distribution { return plan.Distribution{Kind: plan.DistSingleton} }
func broadcastDist() plan.Distribution { return plan.Distribution{Kind: plan.DistBroadcast} }

// proto carves the one candidate of an implementation rule: operator op over
// e's payload, delivering out, with one child requirement per entry of reqs.
// The caller fills any further field.
func proto(m *cascades.Memo, e *cascades.MExpr, op plan.PhysOp, out plan.Distribution, reqs ...plan.Distribution) []*cascades.PhysProto {
	ps := m.Protos(1)
	p := ps[0]
	p.Op, p.Node, p.OutDist, p.BuildIdx = op, e.Node, out, -1
	p.ChildReq = m.Dists(len(reqs))
	copy(p.ChildReq, reqs)
	return ps
}

// getToRange implements scans: Extract for a bare scan, RangeScan when a
// filter was merged into the scan. Required rule.
type getToRange struct{ info }

func (r getToRange) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	op := plan.PhysExtract
	if e.Node.Pred != nil {
		op = plan.PhysRangeScan
	}
	return proto(m, e, op, randomDist())
}

// selectToFilter implements filters. Required rule.
type selectToFilter struct{ info }

func (r selectToFilter) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return proto(m, e, plan.PhysFilter, anyDist(), anyDist()) // inherit
}

// projectToCompute implements projections. Required rule.
type projectToCompute struct{ info }

func (r projectToCompute) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return proto(m, e, plan.PhysCompute, anyDist(), anyDist())
}

// buildOutput implements the writer. Required rule.
type buildOutput struct{ info }

func (r buildOutput) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return proto(m, e, plan.PhysOutputImpl, anyDist(), anyDist())
}

// anyChildren carves e's candidate of operator op over children that may
// arrive in any distribution.
func anyChildren(m *cascades.Memo, e *cascades.MExpr, op plan.PhysOp, out plan.Distribution) []*cascades.PhysProto {
	ps := proto(m, e, op, out)
	ps[0].ChildReq = m.Dists(len(e.Children))
	for i := range ps[0].ChildReq {
		ps[0].ChildReq[i] = anyDist()
	}
	return ps
}

// buildMulti implements the virtual multi-output root. Required rule.
type buildMulti struct{ info }

func (r buildMulti) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return anyChildren(m, e, plan.PhysMultiImpl, singletonDist())
}

// joinImpl produces one physical join flavor. The four registered instances
// mirror the implementation rules the paper's RuleDiffs name: HashJoinImpl1
// (re-partition both sides), JoinImpl2 (broadcast the right side into a hash
// join), MergeJoinImpl (re-partition plus sort-merge), JoinToApplyIndex1
// (broadcast nested-loop apply — the only option for non-equi predicates,
// and a disaster when the build side is underestimated).
type joinImpl struct {
	info
	flavor plan.PhysOp
}

func (r joinImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	l, rg := e.Children[0], e.Children[1]
	switch r.flavor {
	case plan.PhysHashJoin, plan.PhysMergeJoin:
		lk, rk := equiKeys(m, e.Node.Pred, l.Schema, rg.Schema)
		if len(lk) == 0 {
			return nil
		}
		out := m.HashDist(lk)
		ps := proto(m, e, r.flavor, out, out, m.HashDist(rk))
		ps[0].BuildIdx = 1
		if r.flavor == plan.PhysMergeJoin {
			ps[0].NeedsSort = true
		} else if !(rg.Props.Rows < l.Props.Rows) {
			ps[0].BuildIdx = 0 // build the smaller side
		}
		return ps
	case plan.PhysHashJoinAlt:
		if !hasEquiKey(e.Node.Pred, l.Schema, rg.Schema) {
			return nil
		}
		ps := proto(m, e, plan.PhysHashJoinAlt, anyDist(), anyDist(), broadcastDist()) // probe side layout preserved
		ps[0].BuildIdx = 1
		return ps
	case plan.PhysLoopJoin:
		ps := proto(m, e, plan.PhysLoopJoin, anyDist(), anyDist(), broadcastDist())
		ps[0].BuildIdx = 1
		return ps
	default:
		return nil // not a join flavor this rule produces
	}
}

// aggImpl produces one physical aggregation flavor: single-phase hash
// aggregation, sorted-stream aggregation, or two-phase local/global hash
// aggregation.
type aggImpl struct {
	info
	flavor plan.PhysOp
}

func (r aggImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	switch r.flavor {
	case plan.PhysHashAgg, plan.PhysStreamAgg, plan.PhysFinalHashAgg:
	default:
		return nil // not an aggregation flavor this rule produces
	}
	req := singletonDist()
	if len(e.Node.GroupKeys) > 0 {
		req = m.HashDist(e.Node.GroupKeys)
	}
	ps := proto(m, e, r.flavor, req, req)
	switch r.flavor {
	case plan.PhysStreamAgg:
		ps[0].NeedsSort = true
	case plan.PhysFinalHashAgg:
		ps[0].LocalPre = plan.PhysPartialHashAgg
	default:
		// Single-phase hash aggregation needs nothing more.
	}
	return ps
}

// unionImpl produces one physical union flavor: the materializing
// UnionAllToUnionAll merge or the zero-copy UnionAllToVirtualDataset, whose
// relative merit the paper's RuleDiffs repeatedly surface (Q_A3, Q_B3).
type unionImpl struct {
	info
	flavor plan.PhysOp
}

func (r unionImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return anyChildren(m, e, r.flavor, randomDist())
}

// processImpl implements user-defined row processors.
type processImpl struct{ info }

func (r processImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return proto(m, e, plan.PhysProcessImpl, anyDist(), anyDist())
}

// reduceImpl implements user-defined reducers: co-locate and sort each key
// group.
type reduceImpl struct{ info }

func (r reduceImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	req := m.HashDist(e.Node.ReduceKeys)
	ps := proto(m, e, plan.PhysReduceImpl, req, req)
	ps[0].NeedsSort = true
	return ps
}

// topImpl produces top-N implementations: a simple gather-then-select, or the
// two-phase variant with per-partition local tops.
type topImpl struct {
	info
	twoPhase bool
}

func (r topImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	ps := proto(m, e, plan.PhysGlobalTop, singletonDist(), singletonDist())
	if r.twoPhase {
		ps[0].LocalPre = plan.PhysLocalTop
	}
	return ps
}
