package main

import (
	"steerq/internal/bundle"
	"steerq/internal/obs"
	"steerq/internal/serve"
)

// layerAcc collects the traced run's samples by name: per-layer metric
// names for samples reported as they are, "t."-prefixed names for the raw
// times and counts the derived metrics divide. A nil accumulator (an
// untraced round) collects nothing.
type layerAcc struct {
	samples map[string][]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) {
	if a != nil {
		a.samples[name] = append(a.samples[name], v)
	}
}

func (a *layerAcc) sum(name string) float64 { return sum(a.samples[name]) }

func (a *layerAcc) mean(name string) float64 {
	return ratio(a.sum(name), float64(len(a.samples[name])))
}

// counterDelta sums the counters called name — restricted to label key=val
// when key is set — in after minus before.
func counterDelta(before, after obs.Snapshot, name, key, val string) float64 {
	total := func(s obs.Snapshot) (t float64) {
		for _, c := range s.Counters {
			if c.Name != name {
				continue
			}
			match := key == ""
			for _, l := range c.Labels {
				match = match || (l.Key == key && l.Value == val)
			}
			if match {
				t += float64(c.Value)
			}
		}
		return t
	}
	return total(after) - total(before)
}

// spanDelta is the count and summed seconds of the program's own spans of
// one stage recorded between two snapshots.
func spanDelta(before, after obs.Snapshot, stage string) (n, seconds float64) {
	total := func(s obs.Snapshot) (n, ns float64) {
		for _, sp := range s.Spans {
			if sp.Stage == stage {
				n++
				ns += float64(sp.DurationNs)
			}
		}
		return n, ns
	}
	n0, ns0 := total(before)
	n1, ns1 := total(after)
	return n1 - n0, (ns1 - ns0) / 1e9
}

// registryDelta reads what the program itself published during one traced
// unit of work: compile outcomes and rule firings from cascades, and the
// abtest.compile / abtest.exec spans of every trial.
func (a *layerAcc) registryDelta(before, after obs.Snapshot) {
	noplan := counterDelta(before, after, "steerq_cascades_compiles_total", "outcome", "noplan")
	a.add("t.noplan", noplan)
	a.add("cascades.compiles", noplan+counterDelta(before, after, "steerq_cascades_compiles_total", "outcome", "ok"))
	a.add("cascades.rule_firings", counterDelta(before, after, "steerq_cascades_rule_firings_total", "", ""))
	_, compileS := spanDelta(before, after, "abtest.compile")
	trials, execS := spanDelta(before, after, "abtest.exec")
	a.add("abtest.trials", trials)
	a.add("abtest.compile_s", compileS)
	a.add("exec.run_s", execS)
}

// bundleLayer times the serving tier's reload work on one encoded bundle,
// in process: bundle.Decode, SDK.LoadBytes and serve.NewTable.
func bundleLayer(a *layerAcc, data []byte) {
	for i := 0; i < 5; i++ {
		var b *bundle.Bundle
		var err error
		a.add("bundle.decode_us", us(stopwatch(func() { b, err = bundle.Decode(data) })))
		if err != nil {
			return
		}
		a.add("serve.newtable_us", us(stopwatch(func() { serve.NewTable(b) })))
		sdk := serve.NewSDK(nil)
		a.add("serve.load_us", us(stopwatch(func() { err = sdk.LoadBytes(data) })))
	}
}

// layerMetrics turns the samples into the per-layer metrics. Every declared
// metric is present; one whose layer the workload never entered is 0.
// Timings are medians over calls; counts are per traced unit of work (each
// unit added one "t.pass_s" sample).
func (a *layerAcc) layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for _, n := range []string{
		"scopeql.compile_us", "cascades.group_us", "steering.recompile_ms", "steering.cache_entries", "abtest.execute_ms",
		"learning.arms_ms", "learning.collect_ms", "learning.evaluate_ms", "learning.save_load_ms", "nn.train_ms",
		"bundle.encode_us", "bundle.decode_us", "bundle.write_us", "bundle.bytes", "bundle.entries",
		"serve.load_us", "serve.newtable_us", "serve.reload_post_ms",
	} {
		m[n] = median(a.samples[n])
	}
	for _, n := range []string{
		"cascades.compiles", "cascades.rule_firings", "steering.candidates", "steering.minimal_ms",
		"abtest.trials", "abtest.compile_s", "exec.run_s", "par.items", "par.steals", "par.merges", "learning.trials",
	} {
		m[n] = ratio(a.sum(n), float64(len(a.samples["t.pass_s"])))
	}
	unit := a.sum("t.pass_s")
	m["scopeql.mb_per_s"] = ratio(a.sum("t.script_bytes")/1e6, a.sum("t.compile_s"))
	m["cascades.noplan_share"] = ratio(a.sum("t.noplan"), a.sum("cascades.compiles"))
	m["steering.recompile_share"] = ratio(a.sum("t.recompile_s"), unit)
	m["steering.us_per_candidate"] = ratio(a.sum("t.recompile_s")*1e6, a.sum("steering.candidates"))
	m["steering.cache_hit_share"] = ratio(a.sum("t.cache_hits"), a.sum("t.cache_probes"))
	m["steering.fp_avoided_share"] = ratio(a.sum("t.fp_avoided"), a.sum("steering.candidates"))
	m["exec.run_us"] = ratio(a.sum("exec.run_s")*1e6, a.sum("abtest.trials"))
	m["exec.share"] = ratio(a.sum("exec.run_s")+a.sum("abtest.compile_s"), unit)
	m["nn.train_share"] = ratio(a.sum("t.train_s"), unit)
	m["serve.lookup_ns"] = a.mean("serve.lookup_ns")
	m["serve.handler_us"] = a.mean("serve.handler_us")
	return m
}
