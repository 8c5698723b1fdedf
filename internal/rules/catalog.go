package rules

import (
	"fmt"

	"steerq/internal/cascades"
	"steerq/internal/plan"
)

// Catalog assembles the full 256-rule set. The census matches Table 2 of the
// paper: 37 required, 46 off-by-default, 141 on-by-default, 32
// implementation.
func Catalog() *cascades.RuleSet {
	rs, err := buildCatalog()
	if err != nil {
		// The catalog is static data; buildCatalog only fails on a
		// programming error, which the tests of this package catch.
		// steerq:allow-panic
		panic(err)
	}
	return rs
}

// buildCatalog constructs and census-checks the rule set, reporting any
// catalog defect as an error.
func buildCatalog() (*cascades.RuleSet, error) {
	mk := func(id int, name string, cat cascades.Category) info {
		return info(cascades.RuleInfo{ID: id, Name: name, Category: cat})
	}

	transforms := []cascades.TransformRule{
		// Off-by-default transformations.
		correlatedJoinOnUnionAll{info: mk(IDCorrelatedJoinOnUnionAll1, "CorrelatedJoinOnUnionAll1", cascades.OffByDefault), side: 0, minBranches: 2, maxBranches: 2},
		correlatedJoinOnUnionAll{info: mk(IDCorrelatedJoinOnUnionAll2, "CorrelatedJoinOnUnionAll2", cascades.OffByDefault), side: 0, minBranches: 3},
		correlatedJoinOnUnionAll{info: mk(IDCorrelatedJoinOnUnionAll3, "CorrelatedJoinOnUnionAll3", cascades.OffByDefault), side: 1, minBranches: 2},
		groupbyOnJoin{info: mk(IDGroupbyOnJoin, "GroupbyOnJoin", cascades.OffByDefault), side: 0},
		groupbyOnJoin{info: mk(IDGroupbyOnJoinRight, "GroupbyOnJoinRight", cascades.OffByDefault), side: 1},
		topOnUnionAll{info: mk(IDTopOnUnionAll, "TopOnUnionAll", cascades.OffByDefault)},
		selectSplitDisjunction{info: mk(IDSelectSplitDisjunction, "SelectSplitDisjunction", cascades.OffByDefault)},

		// On-by-default transformations.
		collapseSelects{info: mk(IDCollapseSelects, "CollapseSelects", cascades.OnByDefault)},
		selectOnProject{info: mk(IDSelectOnProject, "SelectOnProject", cascades.OnByDefault)},
		selectOnJoin{info: mk(IDSelectOnJoinLeft, "SelectOnJoinLeft", cascades.OnByDefault), side: 0},
		selectOnJoin{info: mk(IDSelectOnJoinRight, "SelectOnJoinRight", cascades.OnByDefault), side: 1},
		selectOnUnionAll{info: mk(IDSelectOnUnionAll, "SelectOnUnionAll", cascades.OnByDefault)},
		selectOnGroupBy{info: mk(IDSelectOnGroupBy, "SelectOnGroupBy", cascades.OnByDefault)},
		selectPredNormalized{info: mk(IDSelectPredNormalized, "SelectPredNormalized", cascades.OnByDefault)},
		selectOnTrue{info: mk(IDSelectOnTrue, "SelectOnTrue", cascades.OnByDefault)},
		selectIntoGet{info: mk(IDSelectIntoGet, "SelectIntoGet", cascades.OnByDefault)},
		joinCommute{info: mk(IDJoinCommute, "JoinCommute", cascades.OnByDefault)},
		joinAssoc{info: mk(IDJoinAssocLeft, "JoinAssocLeft", cascades.OnByDefault), side: 0},
		joinAssoc{info: mk(IDJoinAssocRight, "JoinAssocRight", cascades.OnByDefault), side: 1},
		projectOnProject{info: mk(IDProjectOnProject, "ProjectOnProject", cascades.OnByDefault)},
		unionAllFlatten{info: mk(IDUnionAllFlatten, "UnionAllFlatten", cascades.OnByDefault)},
		processOnUnionAll{info: mk(IDProcessOnUnionAll, "ProcessOnUnionAll", cascades.OnByDefault)},
		groupbyBelowUnionAll{info: mk(IDGroupbyBelowUnionAll, "GroupbyBelowUnionAll", cascades.OnByDefault)},
		topOnProject{info: mk(IDTopOnProject, "TopOnProject", cascades.OnByDefault)},
		groupbyOnProject{info: mk(IDGroupbyOnProject, "GroupbyOnProject", cascades.OnByDefault)},
		transitivePredicate{info: mk(IDTransitivePredicate, "TransitivePredicate", cascades.OnByDefault)},
		udoPredicateTransfer{info: mk(IDUdoPredicateTransfer, "UdoPredicateTransfer", cascades.OnByDefault)},
	}

	implements := []cascades.ImplementRule{
		// Required implementation machinery.
		getToRange{info: mk(IDGetToRange, "GetToRange", cascades.Required)},
		selectToFilter{info: mk(IDSelectToFilter, "SelectToFilter", cascades.Required)},
		projectToCompute{info: mk(IDProjectToCompute, "ProjectToCompute", cascades.Required)},
		buildOutput{info: mk(IDBuildOutput, "BuildOutput", cascades.Required)},
		buildMulti{info: mk(IDBuildMulti, "BuildMulti", cascades.Required)},

		// Implementation category.
		joinImpl{info: mk(IDHashJoinImpl1, "HashJoinImpl1", cascades.Implementation), flavor: plan.PhysHashJoin},
		joinImpl{info: mk(IDJoinImpl2, "JoinImpl2", cascades.Implementation), flavor: plan.PhysHashJoinAlt},
		joinImpl{info: mk(IDMergeJoinImpl, "MergeJoinImpl", cascades.Implementation), flavor: plan.PhysMergeJoin},
		joinImpl{info: mk(IDJoinToApplyIndex1, "JoinToApplyIndex1", cascades.Implementation), flavor: plan.PhysLoopJoin},
		aggImpl{info: mk(IDHashAggImpl, "HashAggImpl", cascades.Implementation), flavor: plan.PhysHashAgg},
		aggImpl{info: mk(IDStreamAggImpl, "StreamAggImpl", cascades.Implementation), flavor: plan.PhysStreamAgg},
		aggImpl{info: mk(IDLocalGlobalAggImpl, "LocalGlobalAggImpl", cascades.Implementation), flavor: plan.PhysFinalHashAgg},
		unionImpl{info: mk(IDUnionAllToUnionAll, "UnionAllToUnionAll", cascades.Implementation), flavor: plan.PhysUnionMerge},
		unionImpl{info: mk(IDUnionAllToVirtualDS, "UnionAllToVirtualDataset", cascades.Implementation), flavor: plan.PhysVirtualDataset},
		processImpl{info: mk(IDProcessImpl, "ProcessImpl", cascades.Implementation)},
		reduceImpl{info: mk(IDReduceImpl, "ReduceImpl", cascades.Implementation)},
		topImpl{info: mk(IDTopImplSimple, "TopImplSimple", cascades.Implementation)},
		topImpl{info: mk(IDTopImplTwoPhase, "TopImplTwoPhase", cascades.Implementation), twoPhase: true},
	}

	// Declared rules: registered catalog entries whose operator classes do
	// not occur in the dialect (see package comment).
	var extra []cascades.RuleInfo
	extra = append(extra,
		cascades.RuleInfo{ID: IDEnforceExchange, Name: "EnforceExchange", Category: cascades.Required},
		cascades.RuleInfo{ID: IDEnforceSortOrder, Name: "EnforceSortOrder", Category: cascades.Required},
	)
	for _, b := range declaredBlocks {
		next := b.first
		for _, name := range b.names {
			extra = append(extra, cascades.RuleInfo{ID: next, Name: name, Category: b.cat})
			next++
		}
		if end := bandEnd(b.cat); next != end {
			return nil, fmt.Errorf("rules: census mismatch: %v block ends at %d, band ends at %d", b.cat, next, end)
		}
	}
	if total := len(transforms) + len(implements) + len(extra); total != catalogEnd {
		return nil, fmt.Errorf("rules: catalog census mismatch: %d registrations, want %d", total, catalogEnd)
	}

	rs, err := cascades.NewRuleSet(transforms, implements, extra)
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return rs, nil
}

// bandEnd returns the exclusive upper ID bound of a category's band.
func bandEnd(cat cascades.Category) int {
	switch cat {
	case cascades.Required:
		return requiredEnd
	case cascades.OffByDefault:
		return offByDefaultEnd
	case cascades.OnByDefault:
		return onByDefaultEnd
	default:
		return catalogEnd
	}
}
