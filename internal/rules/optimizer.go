package rules

import (
	"steerq/internal/cascades"
	"steerq/internal/cost"
)

// NewOptimizer wires a Cascades optimizer with the full rule catalog and the
// default coster.
func NewOptimizer(est *cost.Estimator) *cascades.Optimizer {
	return &cascades.Optimizer{
		Rules:             Catalog(),
		Est:               est,
		Coster:            cost.NewCoster(),
		EnforceExchangeID: IDEnforceExchange,
		EnforceSortID:     IDEnforceSortOrder,
	}
}
