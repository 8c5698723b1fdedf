package faults

import (
	"fmt"
	"strconv"
)

// ParsePlan builds a plan from the CLIs' -fault-seed flag value: an empty
// seed means injection off (nil plan, no error); any other seed arms
// DefaultPlan(seed). A failing run is reproduced by passing the same seed —
// decisions depend on nothing else.
func ParsePlan(seedStr string) (*Plan, error) {
	if seedStr == "" {
		return nil, nil
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faults: seed %q: %w", seedStr, err)
	}
	plan := DefaultPlan(seed)
	return &plan, nil
}
