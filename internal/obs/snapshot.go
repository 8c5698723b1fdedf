package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Label is one key/value metric dimension. Labels are sorted by key at
// registration, so identity and serialization order never depend on call
// sites.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// CounterPoint is one counter's snapshot.
type CounterPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  uint64  `json:"value"`
}

// GaugePoint is one gauge's snapshot (materialized gauges and GaugeFuncs
// alike).
type GaugePoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram's snapshot. Bounds are the finite
// ascending upper bounds; Counts has len(Bounds)+1 entries, the last being
// the implicit +Inf overflow bucket (kept implicit so the snapshot stays
// plain JSON — +Inf has no JSON encoding).
type HistogramPoint struct {
	Name   string    `json:"name"`
	Labels []Label   `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// SpanPoint is one completed span. Path/Stage/Tag/Parent are content-derived
// (job IDs, stage names), so the sorted span set is schedule-independent;
// DurationNs is the only clock-dependent field.
type SpanPoint struct {
	Path       string `json:"path"`
	Stage      string `json:"stage"`
	Tag        string `json:"tag,omitempty"`
	Parent     string `json:"parent,omitempty"`
	Outcome    string `json:"outcome"`
	DurationNs int64  `json:"duration_ns"`
}

// Snapshot is one registry's full, deterministically ordered state.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Spans      []SpanPoint      `json:"spans,omitempty"`
}

// Snapshot captures the registry's current state with a deterministic
// ordering: metrics sort by identity (name, then labels) and spans by
// content-keyed path, then outcome. GaugeFuncs are evaluated here. A nil
// registry yields the zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	gfs := make([]gaugeFunc, 0, len(r.gaugeFuncs))
	for _, gf := range r.gaugeFuncs {
		gfs = append(gfs, gf)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	snap.Spans = append([]SpanPoint(nil), r.spans...)
	r.mu.Unlock()

	snap.Counters = make([]CounterPoint, 0, len(counters))
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterPoint{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	snap.Gauges = make([]GaugePoint, 0, len(gauges)+len(gfs))
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	for _, gf := range gfs {
		snap.Gauges = append(snap.Gauges, GaugePoint{Name: gf.name, Labels: gf.labels, Value: gf.fn()})
	}
	snap.Histograms = make([]HistogramPoint, 0, len(hists))
	for _, h := range hists {
		snap.Histograms = append(snap.Histograms, h.snapshot())
	}

	sort.Slice(snap.Counters, func(i, j int) bool {
		return pointLess(snap.Counters[i].Name, snap.Counters[i].Labels, snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return pointLess(snap.Gauges[i].Name, snap.Gauges[i].Labels, snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return pointLess(snap.Histograms[i].Name, snap.Histograms[i].Labels, snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	sort.Slice(snap.Spans, func(i, j int) bool {
		a, b := snap.Spans[i], snap.Spans[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		return a.Outcome < b.Outcome
	})
	return snap
}

// pointLess orders metric points by identity: name first, then sorted labels.
func pointLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i].Key != bl[i].Key {
			return al[i].Key < bl[i].Key
		}
		if al[i].Value != bl[i].Value {
			return al[i].Value < bl[i].Value
		}
	}
	return len(al) < len(bl)
}

// MarshalIndent is the canonical snapshot serialization used by
// -metrics-out: indented, field-ordered, deterministic given the sorted
// point ordering from Snapshot.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the MarshalIndent JSON to path, whatever its extension.
// Every CLI routes -metrics-out through here, so the offline format is one.
func (s Snapshot) WriteFile(path string) error {
	data, err := s.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write metrics file: %w", err)
	}
	return nil
}

// Text writes the snapshot as the Prometheus-style text exposition steerqd
// serves at /metrics: one `# TYPE` line per metric family, then
// `name{k="v"} value` sample lines.
// Histograms expand to `_bucket{le="..."}` (cumulative, ending at le="+Inf"),
// `_sum` and `_count`. Spans are aggregated per (stage, outcome) into
// `steerq_span_total` and `steerq_span_duration_ns_total` families so the
// exposition stays bounded. The output is deterministic: families and
// samples appear in sorted order.
func (s Snapshot) Text(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	family := func(name, typ string) {
		if name == lastFamily {
			return
		}
		lastFamily = name
		b.WriteString("# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(typ)
		b.WriteByte('\n')
	}
	for _, c := range s.Counters {
		family(c.Name, "counter")
		writeSample(&b, c.Name, c.Labels, "", formatUint(c.Value))
	}
	lastFamily = ""
	for _, g := range s.Gauges {
		family(g.Name, "gauge")
		writeSample(&b, g.Name, g.Labels, "", formatFloat(g.Value))
	}
	lastFamily = ""
	for _, h := range s.Histograms {
		family(h.Name, "histogram")
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			writeSample(&b, h.Name+"_bucket", h.Labels, `le="`+le+`"`, formatUint(cum))
		}
		writeSample(&b, h.Name+"_sum", h.Labels, "", formatFloat(h.Sum))
		writeSample(&b, h.Name+"_count", h.Labels, "", formatUint(h.Count))
	}
	if len(s.Spans) > 0 {
		type spanAgg struct {
			count uint64
			durNs int64
		}
		aggs := make(map[string]*spanAgg)
		keys := make([]string, 0, 8)
		for _, sp := range s.Spans {
			k := sp.Stage + "\x00" + sp.Outcome
			a, ok := aggs[k]
			if !ok {
				a = &spanAgg{}
				aggs[k] = a
				keys = append(keys, k)
			}
			a.count++
			a.durNs += sp.DurationNs
		}
		sort.Strings(keys)
		b.WriteString("# TYPE steerq_span_total counter\n")
		for _, k := range keys {
			stage, outcome, _ := strings.Cut(k, "\x00")
			ls := []Label{{Key: "outcome", Value: outcome}, {Key: "stage", Value: stage}}
			writeSample(&b, "steerq_span_total", ls, "", formatUint(aggs[k].count))
		}
		b.WriteString("# TYPE steerq_span_duration_ns_total counter\n")
		for _, k := range keys {
			stage, outcome, _ := strings.Cut(k, "\x00")
			ls := []Label{{Key: "outcome", Value: outcome}, {Key: "stage", Value: stage}}
			writeSample(&b, "steerq_span_duration_ns_total", ls, "", strconv.FormatInt(aggs[k].durNs, 10))
		}
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("obs: write exposition: %w", err)
	}
	return nil
}

// writeSample appends one `name{labels,extra} value` exposition line.
func writeSample(b *strings.Builder, name string, ls []Label, extra, value string) {
	b.WriteString(name)
	if len(ls) > 0 || extra != "" {
		b.WriteByte('{')
		for i, l := range ls {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		if extra != "" {
			if len(ls) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatUint renders a counter/bucket value.
func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatFloat renders a float with the shortest round-trippable form, so
// text output is byte-stable across runs and platforms.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
