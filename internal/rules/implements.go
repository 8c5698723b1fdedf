package rules

import (
	"steerq/internal/cascades"
	"steerq/internal/plan"
)

func anyDist() plan.Distribution       { return plan.Distribution{Kind: plan.DistAny} }
func randomDist() plan.Distribution    { return plan.Distribution{Kind: plan.DistRandom} }
func singletonDist() plan.Distribution { return plan.Distribution{Kind: plan.DistSingleton} }
func broadcastDist() plan.Distribution { return plan.Distribution{Kind: plan.DistBroadcast} }

func hashDist(cols []plan.Column) plan.Distribution {
	return plan.Distribution{Kind: plan.DistHash, Keys: cascades.SortedKeys(cols)}
}

// getToRange implements scans: Extract for a bare scan, RangeScan when a
// filter was merged into the scan. Required rule.
type getToRange struct{ info }

func (r getToRange) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	op := plan.PhysExtract
	if e.Node.Pred != nil {
		op = plan.PhysRangeScan
	}
	return []*cascades.PhysProto{{
		Op:       op,
		Node:     e.Node,
		OutDist:  randomDist(),
		BuildIdx: -1,
	}}
}

// selectToFilter implements filters. Required rule.
type selectToFilter struct{ info }

func (r selectToFilter) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return []*cascades.PhysProto{{
		Op:       plan.PhysFilter,
		Node:     e.Node,
		ChildReq: []plan.Distribution{anyDist()},
		OutDist:  anyDist(), // inherit
		BuildIdx: -1,
	}}
}

// projectToCompute implements projections. Required rule.
type projectToCompute struct{ info }

func (r projectToCompute) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return []*cascades.PhysProto{{
		Op:       plan.PhysCompute,
		Node:     e.Node,
		ChildReq: []plan.Distribution{anyDist()},
		OutDist:  anyDist(),
		BuildIdx: -1,
	}}
}

// buildOutput implements the writer. Required rule.
type buildOutput struct{ info }

func (r buildOutput) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return []*cascades.PhysProto{{
		Op:       plan.PhysOutputImpl,
		Node:     e.Node,
		ChildReq: []plan.Distribution{anyDist()},
		OutDist:  anyDist(),
		BuildIdx: -1,
	}}
}

// buildMulti implements the virtual multi-output root. Required rule.
type buildMulti struct{ info }

func (r buildMulti) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	reqs := make([]plan.Distribution, len(e.Children))
	for i := range reqs {
		reqs[i] = anyDist()
	}
	return []*cascades.PhysProto{{
		Op:       plan.PhysMultiImpl,
		Node:     e.Node,
		ChildReq: reqs,
		OutDist:  singletonDist(),
		BuildIdx: -1,
	}}
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
	lk, rk := equiKeys(e.Node.Pred, schemaSet(l), schemaSet(rg))
	switch r.flavor {
	case plan.PhysHashJoin:
		if len(lk) == 0 {
			return nil
		}
		build := 0
		if rg.Props.Rows < l.Props.Rows {
			build = 1
		}
		return []*cascades.PhysProto{{
			Op:       plan.PhysHashJoin,
			Node:     e.Node,
			ChildReq: []plan.Distribution{hashDist(lk), hashDist(rk)},
			OutDist:  hashDist(lk),
			BuildIdx: build,
		}}
	case plan.PhysHashJoinAlt:
		if len(lk) == 0 {
			return nil
		}
		return []*cascades.PhysProto{{
			Op:       plan.PhysHashJoinAlt,
			Node:     e.Node,
			ChildReq: []plan.Distribution{anyDist(), broadcastDist()},
			OutDist:  anyDist(), // probe side layout preserved
			BuildIdx: 1,
		}}
	case plan.PhysMergeJoin:
		if len(lk) == 0 {
			return nil
		}
		return []*cascades.PhysProto{{
			Op:        plan.PhysMergeJoin,
			Node:      e.Node,
			ChildReq:  []plan.Distribution{hashDist(lk), hashDist(rk)},
			OutDist:   hashDist(lk),
			BuildIdx:  1,
			NeedsSort: true,
		}}
	case plan.PhysLoopJoin:
		return []*cascades.PhysProto{{
			Op:       plan.PhysLoopJoin,
			Node:     e.Node,
			ChildReq: []plan.Distribution{anyDist(), broadcastDist()},
			OutDist:  anyDist(),
			BuildIdx: 1,
		}}
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
	var req, out plan.Distribution
	if len(e.Node.GroupKeys) == 0 {
		req, out = singletonDist(), singletonDist()
	} else {
		req = hashDist(e.Node.GroupKeys)
		out = req
	}
	switch r.flavor {
	case plan.PhysHashAgg:
		return []*cascades.PhysProto{{
			Op:       plan.PhysHashAgg,
			Node:     e.Node,
			ChildReq: []plan.Distribution{req},
			OutDist:  out,
			BuildIdx: -1,
		}}
	case plan.PhysStreamAgg:
		return []*cascades.PhysProto{{
			Op:        plan.PhysStreamAgg,
			Node:      e.Node,
			ChildReq:  []plan.Distribution{req},
			OutDist:   out,
			BuildIdx:  -1,
			NeedsSort: true,
		}}
	case plan.PhysFinalHashAgg:
		return []*cascades.PhysProto{{
			Op:       plan.PhysFinalHashAgg,
			Node:     e.Node,
			ChildReq: []plan.Distribution{req},
			OutDist:  out,
			BuildIdx: -1,
			LocalPre: plan.PhysPartialHashAgg,
		}}
	default:
		return nil // not an aggregation flavor this rule produces
	}
}

// unionImpl produces one physical union flavor: the materializing
// UnionAllToUnionAll merge or the zero-copy UnionAllToVirtualDataset, whose
// relative merit the paper's RuleDiffs repeatedly surface (Q_A3, Q_B3).
type unionImpl struct {
	info
	flavor plan.PhysOp
}

func (r unionImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	reqs := make([]plan.Distribution, len(e.Children))
	for i := range reqs {
		reqs[i] = anyDist()
	}
	return []*cascades.PhysProto{{
		Op:       r.flavor,
		Node:     e.Node,
		ChildReq: reqs,
		OutDist:  randomDist(),
		BuildIdx: -1,
	}}
}

// processImpl implements user-defined row processors.
type processImpl struct{ info }

func (r processImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	return []*cascades.PhysProto{{
		Op:       plan.PhysProcessImpl,
		Node:     e.Node,
		ChildReq: []plan.Distribution{anyDist()},
		OutDist:  anyDist(),
		BuildIdx: -1,
	}}
}

// reduceImpl implements user-defined reducers: co-locate and sort each key
// group.
type reduceImpl struct{ info }

func (r reduceImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	req := hashDist(e.Node.ReduceKeys)
	return []*cascades.PhysProto{{
		Op:        plan.PhysReduceImpl,
		Node:      e.Node,
		ChildReq:  []plan.Distribution{req},
		OutDist:   req,
		BuildIdx:  -1,
		NeedsSort: true,
	}}
}

// topImpl produces top-N implementations: a simple gather-then-select, or the
// two-phase variant with per-partition local tops.
type topImpl struct {
	info
	twoPhase bool
}

func (r topImpl) Implement(e *cascades.MExpr, m *cascades.Memo) []*cascades.PhysProto {
	p := &cascades.PhysProto{
		Op:       plan.PhysGlobalTop,
		Node:     e.Node,
		ChildReq: []plan.Distribution{singletonDist()},
		OutDist:  singletonDist(),
		BuildIdx: -1,
	}
	if r.twoPhase {
		p.LocalPre = plan.PhysLocalTop
	}
	return []*cascades.PhysProto{p}
}
