package steering

import (
	"fmt"
	"sort"
	"strings"

	"steerq/internal/bitvec"
	"steerq/internal/cascades"
)

// Hints is the deployment surface the paper recommends (§3.3): a discovered
// rule configuration rendered as the rule on/off flags a customer pastes
// into their job ("rule flags are already available and often used by
// customers; new rule configurations can be simply surfaced as an extension
// of this capability").
//
// A hint string lists only the *differences* from the default configuration,
// e.g.:
//
//	DISABLE: JoinImpl2, SelectIntoGet
//	ENABLE:  CorrelatedJoinOnUnionAll1
type Hints struct {
	Disable []string
	Enable  []string
}

// HintsFor renders a configuration as hints relative to the rule set's
// default configuration. Rules the catalog does not know (stray bits) are
// rendered as "rule#<id>".
func HintsFor(cfg bitvec.Vector, rs *cascades.RuleSet) Hints {
	def := rs.DefaultConfig()
	h := Hints{Disable: rs.Names(def.AndNot(cfg).Ones()), Enable: rs.Names(cfg.AndNot(def).Ones())}
	sort.Strings(h.Disable)
	sort.Strings(h.Enable)
	return h
}

// String renders the hints in the canonical textual form.
func (h Hints) String() string {
	var b strings.Builder
	if len(h.Disable) > 0 {
		fmt.Fprintf(&b, "DISABLE: %s\n", strings.Join(h.Disable, ", "))
	}
	if len(h.Enable) > 0 {
		fmt.Fprintf(&b, "ENABLE: %s\n", strings.Join(h.Enable, ", "))
	}
	if b.Len() == 0 {
		return "DEFAULT\n"
	}
	return b.String()
}

// ParseHints reconstructs a configuration from hint text, relative to the
// rule set's default configuration. Unknown rule names are an error — a
// stale hint referencing a removed rule must not silently degrade to the
// default ("it is always hard to deploy learning based approaches that may
// cause surprising regressions", §3.3).
func ParseHints(text string, rs *cascades.RuleSet) (bitvec.Vector, error) {
	cfg := rs.DefaultConfig()
	byName := make(map[string]int)
	for _, ri := range rs.Infos() {
		byName[ri.Name] = ri.ID
	}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line == "DEFAULT" {
			continue
		}
		var names string
		var enable bool
		switch {
		case strings.HasPrefix(line, "DISABLE:"):
			names = strings.TrimPrefix(line, "DISABLE:")
		case strings.HasPrefix(line, "ENABLE:"):
			names = strings.TrimPrefix(line, "ENABLE:")
			enable = true
		default:
			return bitvec.Vector{}, fmt.Errorf("steering: bad hint line %q", line)
		}
		for _, n := range strings.Split(names, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			id, ok := byName[n]
			if !ok {
				return bitvec.Vector{}, fmt.Errorf("steering: unknown rule %q in hints", n)
			}
			if ri, _ := rs.Info(id); ri.Category == cascades.Required {
				return bitvec.Vector{}, fmt.Errorf("steering: required rule %q cannot be hinted", n)
			}
			cfg.Assign(id, enable)
		}
	}
	return cfg, nil
}

// MinimalConfig returns the deployable configuration for an analysis whose
// best alternative beats the default, minimized against the job span: rules
// outside the span cannot affect the plan (Definition 5.1), so their bits
// are reset to the default — the customer-facing hint and the bundle entry
// then carry only the toggles that matter. (If the span heuristic missed a
// dependency, the minimized configuration can compile slightly differently
// from the measured one; the paper accepts the same limitation, §5.1.)
// Reports false when no alternative improved the runtime.
func MinimalConfig(a *Analysis, rs *cascades.RuleSet) (bitvec.Vector, bool) {
	best := a.BestAlternative(MetricRuntime)
	if best == nil || best.Metrics.RuntimeSec >= a.Default.Metrics.RuntimeSec {
		return bitvec.Vector{}, false
	}
	minimal := rs.DefaultConfig()
	for _, id := range a.Span.Ones() {
		minimal.Assign(id, best.Config.Get(id))
	}
	return minimal, true
}
