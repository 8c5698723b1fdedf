package rules

import (
	"steerq/internal/cascades"
	"steerq/internal/cost"
)

// NewOptimizer wires a Cascades optimizer with the full rule catalog.
func NewOptimizer(est *cost.Estimator) *cascades.Optimizer {
	return &cascades.Optimizer{
		Rules:             Catalog(),
		Est:               est,
		EnforceExchangeID: IDEnforceExchange,
		EnforceSortID:     IDEnforceSortOrder,
	}
}
