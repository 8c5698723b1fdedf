package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePlan builds a plan from the CLIs' -fault-seed and -fault-rates flag
// values: an empty seed with empty rates means injection off (nil plan, no
// error); rates without a seed is an error, because rates alone cannot arm
// injection. Rates are comma-separated site.kind=prob pairs, e.g.
// "compile.fail=0.05,compile.corrupt=0.02,exec.hang=0.01", applied over
// DefaultPlan(seed). A failing run is reproduced by passing the same flags —
// decisions depend on nothing else.
func ParsePlan(seedStr, rates string) (*Plan, error) {
	if seedStr == "" {
		if rates != "" {
			return nil, fmt.Errorf("faults: rates %q given without a fault seed", rates)
		}
		return nil, nil
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faults: seed %q: %w", seedStr, err)
	}
	plan := DefaultPlan(seed)
	if rates != "" {
		if err := applyRates(&plan, rates); err != nil {
			return nil, err
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &plan, nil
}

// applyRates parses a comma-separated list of site.kind=prob pairs into the
// plan. Unmentioned probabilities keep their current values.
func applyRates(plan *Plan, rates string) error {
	for _, pair := range strings.Split(rates, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("faults: rate %q: want site.kind=prob", pair)
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("faults: rate %q: %w", pair, err)
		}
		site, kind, ok := strings.Cut(strings.TrimSpace(key), ".")
		if !ok {
			return fmt.Errorf("faults: rate %q: want site.kind=prob", pair)
		}
		var probs *Probs
		switch Site(site) {
		case SiteCompile:
			probs = &plan.Compile
		case SiteExec:
			probs = &plan.Exec
		default:
			return fmt.Errorf("faults: rate %q: unknown site %q", pair, site)
		}
		switch kind {
		case "fail":
			probs.Fail = prob
		case "hang":
			probs.Hang = prob
		case "corrupt":
			probs.Corrupt = prob
		default:
			return fmt.Errorf("faults: rate %q: unknown kind %q", pair, kind)
		}
	}
	return nil
}
