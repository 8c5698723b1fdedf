package rules

import "steerq/internal/plan"

// Each catalog rule rewrites or implements exactly one logical operator, and
// this file is the one place that operator is stated: MatchOp is part of
// cascades.TransformRule and cascades.ImplementRule. The optimizer indexes
// the rules by MatchOp and hands each rule only expressions of its operator,
// so rule bodies trust it and check only their other preconditions. The
// transform tests find the expression to rewrite by MatchOp, so a transform
// declared under the wrong operator fails its own behaviour test.

func (r collapseSelects) MatchOp() plan.Op          { return plan.OpSelect }
func (r selectOnProject) MatchOp() plan.Op          { return plan.OpSelect }
func (r selectOnJoin) MatchOp() plan.Op             { return plan.OpSelect }
func (r selectOnUnionAll) MatchOp() plan.Op         { return plan.OpSelect }
func (r selectOnGroupBy) MatchOp() plan.Op          { return plan.OpSelect }
func (r selectPredNormalized) MatchOp() plan.Op     { return plan.OpSelect }
func (r selectOnTrue) MatchOp() plan.Op             { return plan.OpSelect }
func (r selectIntoGet) MatchOp() plan.Op            { return plan.OpSelect }
func (r selectSplitDisjunction) MatchOp() plan.Op   { return plan.OpSelect }
func (r transitivePredicate) MatchOp() plan.Op      { return plan.OpSelect }
func (r udoPredicateTransfer) MatchOp() plan.Op     { return plan.OpSelect }
func (r joinCommute) MatchOp() plan.Op              { return plan.OpJoin }
func (r joinAssoc) MatchOp() plan.Op                { return plan.OpJoin }
func (r correlatedJoinOnUnionAll) MatchOp() plan.Op { return plan.OpJoin }
func (r projectOnProject) MatchOp() plan.Op         { return plan.OpProject }
func (r unionAllFlatten) MatchOp() plan.Op          { return plan.OpUnionAll }
func (r processOnUnionAll) MatchOp() plan.Op        { return plan.OpProcess }
func (r groupbyBelowUnionAll) MatchOp() plan.Op     { return plan.OpGroupBy }
func (r groupbyOnJoin) MatchOp() plan.Op            { return plan.OpGroupBy }
func (r groupbyOnProject) MatchOp() plan.Op         { return plan.OpGroupBy }
func (r topOnUnionAll) MatchOp() plan.Op            { return plan.OpTop }
func (r topOnProject) MatchOp() plan.Op             { return plan.OpTop }

func (r getToRange) MatchOp() plan.Op       { return plan.OpGet }
func (r selectToFilter) MatchOp() plan.Op   { return plan.OpSelect }
func (r projectToCompute) MatchOp() plan.Op { return plan.OpProject }
func (r buildOutput) MatchOp() plan.Op      { return plan.OpOutput }
func (r buildMulti) MatchOp() plan.Op       { return plan.OpMulti }
func (r joinImpl) MatchOp() plan.Op         { return plan.OpJoin }
func (r aggImpl) MatchOp() plan.Op          { return plan.OpGroupBy }
func (r unionImpl) MatchOp() plan.Op        { return plan.OpUnionAll }
func (r processImpl) MatchOp() plan.Op      { return plan.OpProcess }
func (r reduceImpl) MatchOp() plan.Op       { return plan.OpReduce }
func (r topImpl) MatchOp() plan.Op          { return plan.OpTop }
