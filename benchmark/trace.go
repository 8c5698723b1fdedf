package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed public call, recorded by the benchmark from outside.
// Parent is the causing span (0 for a round's root); Pass is shared by every
// span of one day pass, group or phase; N is how many calls the span covers
// (calls under 10 us are batched into one span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// maxSpans bounds one trace file.
const maxSpans = 50000

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced rounds share their code.
type tracer struct {
	mu      sync.Mutex // the serve workloads' callers record concurrently
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: now()} }

// start opens a span and returns its id (0 on a nil tracer or a full file).
func (t *tracer) start(parent int, layer, op string, pass int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Op: op, Pass: pass, Start: now().Sub(t.t0).Nanoseconds(), N: 1})
	return len(t.spans)
}

// end closes span id, covering n calls.
func (t *tracer) end(id, n int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now().Sub(t.t0).Nanoseconds()
	s.N = n
}

// call records f as one span and returns how long it took.
func (t *tracer) call(parent int, layer, op string, pass int, f func()) time.Duration {
	id := t.start(parent, layer, op, pass)
	d := stopwatch(f)
	t.end(id, 1)
	return d
}

// batched records n calls too short to time one by one (under 10 us) as one
// span of their summed duration, ending now.
func (t *tracer) batched(parent int, layer, op string, pass int, total time.Duration, n int) {
	if id := t.start(parent, layer, op, pass); id != 0 {
		t.mu.Lock()
		defer t.mu.Unlock()
		s := &t.spans[id-1]
		s.End = s.Start
		s.Start -= total.Nanoseconds()
		s.N = n
	}
}

// selfTime is one (layer, op) row of a trace's summary: Self is the spans'
// duration minus the part their child spans cover.
type selfTime struct {
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Spans   int    `json:"spans"`
	Calls   int    `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	rows := map[[2]string]*selfTime{}
	for _, s := range t.spans {
		k := [2]string{s.Layer, s.Op}
		r := rows[k]
		if r == nil {
			r = &selfTime{Layer: s.Layer, Op: s.Op}
			rows[k] = r
		}
		r.Spans++
		r.Calls += s.N
		r.TotalNs += s.End - s.Start
		r.SelfNs += s.End - s.Start - child[s.ID]
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Layer+out[i].Op < out[j].Layer+out[j].Op
	})
	return out
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Dropped  int        `json:"dropped_spans"`
	Self     []selfTime `json:"self_time"`
	Spans    []span     `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Self: t.selfTimes(), Spans: t.spans})
	if err != nil {
		return fmt.Errorf("benchmark: encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("benchmark: trace dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644); err != nil {
		return fmt.Errorf("benchmark: write trace: %w", err)
	}
	return nil
}
