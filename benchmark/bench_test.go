package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"steerq/internal/serve"
)

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables in metrics.go and both to
// the driver's schema.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(file, want) {
		t.Fatalf("BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameGrammar.MatchString(n) {
			t.Errorf("name %q outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	unit := func(n, u, better string) {
		if !unitGrammar.MatchString(u) {
			t.Errorf("%s: unit %q outside the grammar", n, u)
		}
		if better != higher && better != lower {
			t.Errorf("%s: better %q", n, better)
		}
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		unit(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		unit(m.Name, m.Unit, m.Better)
	}
}

// TestList checks -list prints exactly the manifest's names, once each.
func TestList(t *testing.T) {
	var b bytes.Buffer
	writeList(&b)
	listed := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(b.String(), -1) {
		listed[m[1]]++
	}
	want := buildManifest()
	n := len(want.Workloads) + len(want.EndToEnd) + len(want.PerLayer)
	if len(listed) != n {
		t.Errorf("-list prints %d names, the manifest has %d", len(listed), n)
	}
	for _, w := range want.Workloads {
		if listed[w.Name] != 1 {
			t.Errorf("-list prints workload %s %d times", w.Name, listed[w.Name])
		}
	}
	for _, m := range want.EndToEnd {
		if listed[m.Name] != 1 {
			t.Errorf("-list prints %s %d times", m.Name, listed[m.Name])
		}
	}
	for _, m := range want.PerLayer {
		if listed[m.Name] != 1 {
			t.Errorf("-list prints %s %d times", m.Name, listed[m.Name])
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func quickRun(t *testing.T, traced bool) *runCtx {
	rc := &runCtx{seed: 7, seconds: 0.3, sz: quickSizing, scratch: t.TempDir()}
	if traced {
		rc.tr = newTracer()
	}
	return rc
}

// TestQuickSmoke runs every workload at smoke-test size, untraced and
// traced: no oracle breach, every declared metric reported, every
// end-to-end metric positive, and a trace file that parses.
func TestQuickSmoke(t *testing.T) {
	steerqd, err := buildSteerqd(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads() {
		for _, traced := range []bool{false, true} {
			rc := quickRun(t, traced)
			rc.steerqd = steerqd
			res, err := def.Run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", def.Name, traced, res.Failed, res.Attempted, res.Breaches)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			out, err := wire(res, defs)
			if err != nil {
				t.Errorf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !traced {
				for n, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", def.Name, n, m.Value)
					}
				}
				continue
			}
			dir := t.TempDir()
			if err := rc.tr.write(dir, def.Name, rc.seed); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(dir + "/trace-" + def.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || len(tf.Self) == 0 {
				t.Errorf("%s: trace file: %v, %d spans", def.Name, err, len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Parent >= s.ID || s.N < 1 {
					t.Errorf("%s: malformed span %+v", def.Name, s)
					break
				}
			}
		}
	}
}

// TestOraclesBite feeds the oracles wrong outputs: each must count a failure.
func TestOraclesBite(t *testing.T) {
	rc := quickRun(t, false)
	st, err := setupDiscover(rc, false)
	if err != nil {
		t.Fatal(err)
	}
	in := st.days[0]
	out, err := st.pass(rc, newOfflineEnv(st.wl, rc.seed, 1, rc.sz), in, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var clean tally
	checkPass(&clean, in, out)
	if clean.Failed != 0 {
		t.Fatalf("clean pass fails its oracles: %v", clean.Breaches)
	}
	for name, tamper := range map[string]func(){
		"stale version": func() { out.decisions[0].Version++ },
		"wrong config":  func() { out.decisions[0].Config.Assign(3, !out.decisions[0].Config.Get(3)) },
		"torn file":     func() { out.bytes = out.bytes[:len(out.bytes)-1] },
		"wrong plan":    func() { out.roots[0] = out.roots[len(out.roots)-1] },
		"failed group":  func() { out.report.Failed++ },
	} {
		saved := *out
		saved.decisions = append([]serve.Decision(nil), out.decisions...)
		saved.roots = append(saved.roots[:0:0], out.roots...)
		tamper()
		var bad tally
		checkPass(&bad, in, out)
		if bad.Failed == 0 {
			t.Errorf("%s: not counted", name)
		}
		*out = saved
	}

	tab := newTable(7, quickSizing)
	good := tab.expect(nil, 0, 3)
	if v := replyVersion(good); v != 3 {
		t.Errorf("replyVersion = %d, want 3", v)
	}
	if bytes.Equal(good, tab.expect(nil, 0, 4)) && !tab.fallback[0] {
		t.Error("a hit entry's reply does not depend on the version: a torn (version, config) would pass")
	}
}
