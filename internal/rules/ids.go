// Package rules defines the rule catalog of the simulated SCOPE optimizer:
// 256 rules in the four categories of Table 2 of the paper — 37 required,
// 46 off-by-default, 141 on-by-default and 32 implementation rules.
//
// A few dozen rules carry real transformation/implementation behaviour over
// the operators of the scopeql dialect; they include every rule the paper
// names in its examples and RuleDiffs (CorrelatedJoinOnUnionAll,
// GroupbyOnJoin, GroupbyBelowUnionAll, CollapseSelects, SelectOnProject,
// SelectOnTrue, UnionAllToVirtualDataset, UnionAllToUnionAll, HashJoinImpl1,
// JoinImpl2, JoinToApplyIndex1, ...). The remaining IDs are declared catalog
// entries for operator classes outside the dialect; they never fire, exactly
// like the dozens of registered-but-unused rules the paper observes in
// production (Table 2 reports 86 unused rules on Workload A).
package rules

import "steerq/internal/cascades"

// Rule IDs. Stable: bit i of a rule configuration or signature refers to the
// rule with ID i. Layout:
//
//	[0,37)    required
//	[37,83)   off-by-default
//	[83,224)  on-by-default
//	[224,256) implementation
const (
	// Required rules.
	IDEnforceExchange  = 0
	IDEnforceSortOrder = 1
	IDBuildOutput      = 2
	IDGetToRange       = 3
	IDSelectToFilter   = 4
	IDProjectToCompute = 5
	IDBuildMulti       = 6
	// 7..36: declared required rules for absent operator classes.

	// Off-by-default rules.
	IDCorrelatedJoinOnUnionAll1 = 37
	IDCorrelatedJoinOnUnionAll2 = 38
	IDCorrelatedJoinOnUnionAll3 = 39
	IDGroupbyOnJoin             = 40
	IDGroupbyOnJoinRight        = 41
	IDTopOnUnionAll             = 42
	IDSelectSplitDisjunction    = 43
	// 44..82: declared off-by-default rules.

	// On-by-default rules.
	IDCollapseSelects      = 83
	IDSelectOnProject      = 84
	IDSelectOnJoinLeft     = 85
	IDSelectOnJoinRight    = 86
	IDSelectOnUnionAll     = 87
	IDSelectOnGroupBy      = 88
	IDSelectPredNormalized = 89
	IDSelectOnTrue         = 90
	IDSelectIntoGet        = 91
	IDJoinCommute          = 92
	IDJoinAssocLeft        = 93
	IDJoinAssocRight       = 94
	IDProjectOnProject     = 95
	IDUnionAllFlatten      = 96
	IDProcessOnUnionAll    = 97
	IDGroupbyBelowUnionAll = 98
	IDTopOnProject         = 99
	IDGroupbyOnProject     = 100
	IDTransitivePredicate  = 101
	IDUdoPredicateTransfer = 102
	// 103..223: declared on-by-default rules.

	// Implementation rules.
	IDHashJoinImpl1       = 224
	IDJoinImpl2           = 225
	IDMergeJoinImpl       = 226
	IDJoinToApplyIndex1   = 227
	IDHashAggImpl         = 228
	IDStreamAggImpl       = 229
	IDLocalGlobalAggImpl  = 230
	IDUnionAllToUnionAll  = 231
	IDUnionAllToVirtualDS = 232
	IDProcessImpl         = 233
	IDReduceImpl          = 234
	IDTopImplSimple       = 235
	IDTopImplTwoPhase     = 236
	// 237..255: declared implementation rules.
)

// Category boundaries.
const (
	requiredEnd     = 37
	offByDefaultEnd = 83
	onByDefaultEnd  = 224
	catalogEnd      = 256
)

// declaredRequired names the registered required rules with no behaviour in
// the dialect (their operator classes — views, sequences, window frames,
// spools, asserts — do not occur in generated jobs). The paper likewise
// observes 9 of SCOPE's 37 required rules unused in Workload A.
var declaredRequired = []string{
	"NormalizeView", "BuildSequence", "AssertImpl", "EnforceRowOrder",
	"BuildSpool", "NormalizeWindowFrame", "BuildStreamSet", "EnforceSchema",
	"BuildCheckpoint", "NormalizeCast", "BuildApplyBinding", "EnforceNullOrder",
	"BuildExtractor", "NormalizeCollation", "BuildCombiner", "EnforceKeyRange",
	"BuildOutputter", "NormalizeDefault", "BuildMetaOp", "EnforceAffinity",
	"BuildRowsetSource", "NormalizeGuid", "BuildDelta", "EnforceStreamGuard",
	"BuildSample", "NormalizeDateTime", "BuildIndexLookup", "EnforceHeartbeat",
	"BuildViewAdapter", "NormalizeUdtCall",
}

// declaredOffByDefault names the registered experimental/unsafe rules with no
// behaviour in the dialect.
var declaredOffByDefault = []string{
	"CorrelatedJoinOnUnion4", "CorrelatedJoinOnUnion5", "CorrelatedJoinOnUnion6",
	"JoinOnIndexApply2", "JoinOnIndexApply3", "SemiJoinReduction1",
	"SemiJoinReduction2", "BitVectorFilter1", "BitVectorFilter2",
	"StarJoinReorder", "BushyJoinSearch", "MagicSetRewrite",
	"UnfoldCorrelatedApply", "DecorrelateSubquery2", "PartitionWiseJoin",
	"RangePartitionJoin", "SkewedJoinSplit", "ReplicatedAggregation",
	"WindowToSelfJoin", "CrossApplyToJoin2", "LazySpoolInsert",
	"EagerIndexIntersect", "DynamicPivot", "AdaptiveBroadcast",
	"SpeculativeSort", "HintedRecursion", "ForcedStreamRepartition",
	"ColumnGroupPrune", "MultiWayUnionSplit", "NestedUnionFusion",
	"AsymmetricHashRepartition", "CoalescePartitions2", "SampledJoinEstimate",
	"TwoLevelVirtualDataset", "HeuristicBloomProbe", "JoinOnClusteredRange",
	"RecursiveCTEUnroll", "LateMaterialization2", "PushReduceBelowJoin",
}

// declaredOnByDefault names the registered on-by-default rules with no
// behaviour in the dialect. Table 2 reports 37 of SCOPE's 141 on-by-default
// rules unused even across a 95K-job day; here the unused fraction is larger
// because the dialect is narrower.
var declaredOnByDefault = []string{
	"NormalizeReduce", "SelectPartitions", "SequenceProjectOnUnion",
	"CollapseProjects2", "NormalizeAggArgs", "RemoveRedundantExchange",
	"SimplifyCaseExpr", "FoldConstants2", "NullabilityNarrowing",
	"DistinctToGroupby", "ProjectBelowReduce",
	"ReduceOnUnionAll", "TopOnTop", "SortElimination",
	"RedundantJoinElim", "SelfJoinToProject",
	"PredicateSimplify2", "InListToJoin", "JoinPredPullup",
	"OuterToInnerJoin", "UnionAllConstantBranchPrune", "EmptySetPropagation",
	"LimitPushdown2", "ExchangeMergeAdjacent", "BroadcastThresholdTune",
	"PartialSortExploit", "InterestingOrderPropagation", "KeyDependencyPrune",
	"AggFunctionSplit", "AvgToSumCount", "CountStarOptimize",
	"MinMaxIndexProbe", "GroupbyKeySubsume", "RollupExpansion",
	"CubeExpansion", "GroupingSetSplit", "HavingToWhere",
	"WindowFunctionSlide", "RowNumberElim", "RankToTop",
	"DenseRankFold", "LeadLagToSelfJoin", "FirstValueOptimize",
	"StringPredicateRange", "LikeToRange", "DatePredicateFold",
	"IntervalOverlapSplit", "CaseToUnion", "CoalesceChainFold",
	"IsNullToAntiJoin", "NotExistsToAntiJoin", "ExistsToSemiJoin",
	"InSubqueryToSemiJoin", "ScalarSubqueryToApply", "ApplyToJoin",
	"DecorrelateApply", "FlattenApplyUnion", "ApplyProjectHoist",
	"CommonSubplanShare", "ViewSubstitution", "MaterializedViewMatch",
	"IndexedViewProbe", "StatisticsInjection", "CardinalityFeedback",
	"HistogramRefine", "SargableRewrite", "ResidualPredSplit",
	"PartitionPrune2", "StreamGuardElim", "AffinityColocate",
	"TokenAwareRepartition", "VertexFusion", "StageMergeAdjacent",
	"PipelineBreakInsert", "CheckpointElide", "IntermediateCompression",
	"ShuffleSkewSplit", "RangeRepartitionBalance", "HashHintPropagate",
	"SortKeyPrefixExploit", "MergeExchangeCombine", "LocalExchangeElide",
	"ReplicaAwareRead", "ColdStreamDefer", "HotStreamPin",
	"ExtractorColumnPrune", "OutputterBuffering", "UdoSignatureCache",
	"ProcessPipelineFuse", "ReducerCombinerInject", "CombinerBelowExchange",
	"RecursiveReducerSplit", "UdoColumnPushdown",
	"ScriptConstantHoist", "ParameterSniffingGuard", "PlanGuideMatch",
	"LegacySyntaxNormalize", "DeprecatedOpRewrite", "CompatShimInsert",
	"UnionAllBalance", "UnionAllBranchMerge", "UnionAllEmptyPrune",
	"JoinBuildSideHint", "ProbeSideResidual", "HashTeamFormation",
	"BitmapPushdown2", "RuntimeFilterInject", "DynamicPartitionElim",
	"AdaptiveJoinPivot", "BatchModeSwitch", "RowModeFallback",
	"MemoryGrantShape", "SpillAnticipation", "GranuleSizeTune",
	"VectorizedFilterSplit", "ShortCircuitAnd", "PredicateCostOrder",
	"ExpressionCSE", "SubexpressionHoist", "ComputeScalarMerge",
	"ProjectionNarrowing",
}

// declaredImplementation names the registered implementation rules with no
// behaviour in the dialect.
var declaredImplementation = []string{
	"UnionToVirtualDataset2", "ConcatImpl", "SpoolImpl",
	"WindowAggImpl", "SortedTopImpl", "IndexSeekImpl",
	"IndexRangeImpl", "ColumnStoreScanImpl", "LookupJoinImpl",
	"PartitionedOutputImpl", "SampledScanImpl", "CheckpointImpl",
	"SequenceImpl", "StreamSetImpl", "DeltaScanImpl",
	"BufferedExchangeImpl", "CompressedShuffleImpl", "RowBatchExchangeImpl",
	"BroadcastTreeImpl",
}

// declaredBlock assigns a contiguous ID range to declared-only rules:
// names[i] registers under ID first+i.
type declaredBlock struct {
	first int
	names []string
	cat   cascades.Category
}

// declaredBlocks places the declared-only name lists in the catalog. Together
// with the explicit registrations in catalog.go they must tile [0, catalogEnd)
// exactly once; buildCatalog verifies the census at runtime and
// TestCatalogGolden checks that no ID constant falls inside a block.
var declaredBlocks = []declaredBlock{
	{first: IDBuildMulti + 1, names: declaredRequired, cat: cascades.Required},
	{first: IDSelectSplitDisjunction + 1, names: declaredOffByDefault, cat: cascades.OffByDefault},
	{first: IDUdoPredicateTransfer + 1, names: declaredOnByDefault, cat: cascades.OnByDefault},
	{first: IDTopImplTwoPhase + 1, names: declaredImplementation, cat: cascades.Implementation},
}
