package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram("x", []float64{0, 10, 100, 1000}, []float64{1, 5, 9, 10, 50, 999, 1000, 5000})
	if h.Total != 8 {
		t.Fatalf("total %d", h.Total)
	}
	// 1,5,9 -> bucket 0; 10,50 -> bucket 1; 999,1000,5000 -> bucket 2 (last
	// bucket absorbs the top edge and beyond).
	want := []int{3, 2, 3}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	var buf bytes.Buffer
	h.Render(&buf)
	if !strings.Contains(buf.String(), "#") {
		t.Fatal("histogram render has no bars")
	}
}

func TestMeanStd(t *testing.T) {
	// Three jobs, but only two have values for this category: the third
	// counts as zero.
	mean, std := meanStd([]float64{3, 3}, 3)
	if math.Abs(mean-2) > 1e-9 {
		t.Fatalf("mean %v, want 2", mean)
	}
	if math.Abs(std-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("std %v, want sqrt(2)", std)
	}
	if m, s := meanStd(nil, 0); m != 0 || s != 0 {
		t.Fatalf("empty meanStd = %v, %v", m, s)
	}
}

func TestRunnerCaching(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	r := NewRunner(cfg)
	if h := r.Harness("A"); h != r.Harness("A") || h.Workers != 1 {
		t.Fatalf("harness rebuilt or its Workers (%d) not Cfg.Workers (1): grouping would fan out", h.Workers)
	}
	if p := r.Pipeline("A"); p.Workers != 1 || p.Cache != r.Cache("A") {
		t.Fatalf("pipeline Workers %d (want 1) or not on the workload's cache", p.Workers)
	}
	w1 := r.Workload("A")
	w2 := r.Workload("A")
	if w1 != w2 {
		t.Fatal("workload rebuilt")
	}
	d1 := r.Day("A", 0)
	d2 := r.Day("A", 0)
	if &d1[0] != &d2[0] {
		t.Fatal("day regenerated")
	}
	j := d1[0]
	t1 := r.DefaultTrial("A", j)
	t2 := r.DefaultTrial("A", j)
	if t1.Metrics != t2.Metrics {
		t.Fatal("default trial not memoized")
	}
}

func TestRunnerUnknownWorkloadPanics(t *testing.T) {
	r := NewRunner(tinyConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload accepted")
		}
	}()
	r.Workload("Z")
}

func TestLongJobsWindow(t *testing.T) {
	cfg := tinyConfig()
	cfg.LongJobFloor = 30
	cfg.LongJobCeil = 600
	r := NewRunner(cfg)
	for _, j := range r.LongJobs("A", 0) {
		rt := r.DefaultTrial("A", j).Metrics.RuntimeSec
		if rt < 30 || rt > 600 {
			t.Fatalf("job %s runtime %v outside window", j.ID, rt)
		}
	}
}
