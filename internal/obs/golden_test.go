package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"steerq/internal/obs"
)

// goldenRegistry builds one registry exercising every metric kind with fixed
// values, on a clock the builder steps itself so span durations are pinned.
func goldenRegistry() *obs.Registry {
	now := time.Unix(0, 0)
	r := obs.NewWithClock(func() time.Time { return now })
	r.Counter("steerq_pipeline_candidates_total", "outcome", "compiled").Add(12)
	r.Counter("steerq_pipeline_candidates_total", "outcome", "noplan").Add(3)
	r.Counter("steerq_cache_hits_total", "workload", "A").Add(40)
	r.Gauge("steerq_cache_entries", "workload", "A").Set(7)
	r.GaugeFunc("steerq_faults_decisions", func() float64 { return 123 })
	h := r.Histogram("steerq_exec_runtime_seconds", []float64{1, 10, 60})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5)
	h.Observe(600)
	ctx, parent := r.StartSpan(context.Background(), "pipeline.recompile", "d0j1")
	now = now.Add(1500 * time.Microsecond)
	_, child := r.StartSpan(ctx, "pipeline.span_search", "d0j1")
	now = now.Add(500 * time.Microsecond)
	child.End(obs.OutcomeOK)
	parent.End(obs.OutcomeOK)
	_, errSpan := r.StartSpan(context.Background(), "abtest.compile", "d0j2")
	errSpan.End("noplan")
	return r
}

// goldenText locks the exposition format: # TYPE lines per family, sorted
// samples, cumulative histogram buckets ending at le="+Inf", spans aggregated
// per (stage, outcome). Any byte of drift here is an exposition format change
// and must be deliberate.
const goldenText = `# TYPE steerq_cache_hits_total counter
steerq_cache_hits_total{workload="A"} 40
# TYPE steerq_pipeline_candidates_total counter
steerq_pipeline_candidates_total{outcome="compiled"} 12
steerq_pipeline_candidates_total{outcome="noplan"} 3
# TYPE steerq_cache_entries gauge
steerq_cache_entries{workload="A"} 7
# TYPE steerq_faults_decisions gauge
steerq_faults_decisions 123
# TYPE steerq_exec_runtime_seconds histogram
steerq_exec_runtime_seconds_bucket{le="1"} 1
steerq_exec_runtime_seconds_bucket{le="10"} 3
steerq_exec_runtime_seconds_bucket{le="60"} 3
steerq_exec_runtime_seconds_bucket{le="+Inf"} 4
steerq_exec_runtime_seconds_sum 610.5
steerq_exec_runtime_seconds_count 4
# TYPE steerq_span_total counter
steerq_span_total{outcome="noplan",stage="abtest.compile"} 1
steerq_span_total{outcome="ok",stage="pipeline.recompile"} 1
steerq_span_total{outcome="ok",stage="pipeline.span_search"} 1
# TYPE steerq_span_duration_ns_total counter
steerq_span_duration_ns_total{outcome="noplan",stage="abtest.compile"} 0
steerq_span_duration_ns_total{outcome="ok",stage="pipeline.recompile"} 2000000
steerq_span_duration_ns_total{outcome="ok",stage="pipeline.span_search"} 500000
`

func TestTextExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().Text(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenText {
		t.Fatalf("text exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, goldenText)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("MarshalIndent must end with a newline")
	}
	back := decodeSnapshot(t, data)
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot round trip lost information:\nbefore %+v\nafter  %+v", snap, back)
	}
	again, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-marshaled snapshot is not byte-identical")
	}
}

// decodeSnapshot decodes MarshalIndent output strictly: a field the Snapshot
// types do not declare fails the test instead of being dropped.
func decodeSnapshot(t *testing.T, data []byte) obs.Snapshot {
	t.Helper()
	var s obs.Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return s
}

func TestTextEscapesLabelValues(t *testing.T) {
	r := obs.New()
	r.Counter("m_total", "path", "a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().Text(&buf); err != nil {
		t.Fatal(err)
	}
	want := `m_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("label value not escaped:\n%s", buf.String())
	}
}

// TestWriteFileFormats pins -metrics-out to one format: the MarshalIndent
// JSON, whatever the file is called.
func TestWriteFileFormats(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	want, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"metrics.json", "metrics.prom", "metrics.txt"} {
		path := filepath.Join(dir, name)
		if err := snap.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s is not the MarshalIndent JSON:\n%s", name, got)
		}
	}
	if err := snap.WriteFile(filepath.Join(dir, "missing", "m.json")); err == nil {
		t.Fatal("write into a missing directory must fail")
	}
}

func TestEmptySnapshotOutputs(t *testing.T) {
	snap := obs.New().Snapshot()
	var buf bytes.Buffer
	if err := snap.Text(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot exposition not empty: %q", buf.String())
	}
	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "{}" {
		t.Fatalf("empty snapshot JSON = %q", data)
	}
}
