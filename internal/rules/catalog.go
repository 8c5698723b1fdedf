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
		selectPredNormalized{info: mk(IDSelectPredNormalized, "SelectPredNormalized", cascades.OnByDefault)},
		selectIntoGet{info: mk(IDSelectIntoGet, "SelectIntoGet", cascades.OnByDefault)},
		joinCommute{info: mk(IDJoinCommute, "JoinCommute", cascades.OnByDefault)},
		projectOnProject{info: mk(IDProjectOnProject, "ProjectOnProject", cascades.OnByDefault)},
		processOnUnionAll{info: mk(IDProcessOnUnionAll, "ProcessOnUnionAll", cascades.OnByDefault)},
		groupbyBelowUnionAll{info: mk(IDGroupbyBelowUnionAll, "GroupbyBelowUnionAll", cascades.OnByDefault)},
		topOnProject{info: mk(IDTopOnProject, "TopOnProject", cascades.OnByDefault)},
		groupbyOnProject{info: mk(IDGroupbyOnProject, "GroupbyOnProject", cascades.OnByDefault)},
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

	// Declared rules: registered catalog entries without behaviour. The
	// ones listed here keep an ID constant: the enforcers the optimizer is
	// wired to by ID, and on-by-default rewrites the paper names that no
	// generated workload fires (see package comment). The blocks below are
	// operator classes the dialect does not have.
	extra := []cascades.RuleInfo{
		{ID: IDEnforceExchange, Name: "EnforceExchange", Category: cascades.Required},
		{ID: IDEnforceSortOrder, Name: "EnforceSortOrder", Category: cascades.Required},
		{ID: IDCollapseSelects, Name: "CollapseSelects", Category: cascades.OnByDefault},
		{ID: IDSelectOnProject, Name: "SelectOnProject", Category: cascades.OnByDefault},
		{ID: IDSelectOnJoinLeft, Name: "SelectOnJoinLeft", Category: cascades.OnByDefault},
		{ID: IDSelectOnJoinRight, Name: "SelectOnJoinRight", Category: cascades.OnByDefault},
		{ID: IDSelectOnUnionAll, Name: "SelectOnUnionAll", Category: cascades.OnByDefault},
		{ID: IDSelectOnGroupBy, Name: "SelectOnGroupBy", Category: cascades.OnByDefault},
		{ID: IDSelectOnTrue, Name: "SelectOnTrue", Category: cascades.OnByDefault},
		{ID: IDJoinAssocLeft, Name: "JoinAssocLeft", Category: cascades.OnByDefault},
		{ID: IDJoinAssocRight, Name: "JoinAssocRight", Category: cascades.OnByDefault},
		{ID: IDUnionAllFlatten, Name: "UnionAllFlatten", Category: cascades.OnByDefault},
		{ID: IDTransitivePredicate, Name: "TransitivePredicate", Category: cascades.OnByDefault},
		{ID: IDUdoPredicateTransfer, Name: "UdoPredicateTransfer", Category: cascades.OnByDefault},
	}
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
