package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/bundle"
	"steerq/internal/loadgen"
	"steerq/internal/obs"
	"steerq/internal/rules"
	"steerq/internal/serve"
	"steerq/internal/workload"
	"steerq/internal/xrand"
)

// table is the seeded synthetic decision table the serve workloads load:
// Table 1 scale (above the 4096-entry threshold, so the sharded layout is
// live), not the few dozen groups a 1:100 day yields. A hit entry's
// configuration is a function of (entry, version), so a reply pairing one
// version with another's configuration is caught.
type table struct {
	def      bitvec.Vector
	sigs     []bitvec.Vector
	fallback []bool
	misses   []bitvec.Vector
}

func newTable(seed uint64, sz sizing) *table {
	r := xrand.New(seed).Derive("benchmark", "table")
	t := &table{def: rules.Catalog().DefaultConfig()}
	taken := make(map[bitvec.Key]bool, sz.Entries)
	for len(t.sigs) < sz.Entries {
		var v bitvec.Vector
		for j := 0; j < 12; j++ {
			v.Set(r.Intn(bitvec.Width))
		}
		if taken[v.Key()] {
			continue
		}
		taken[v.Key()] = true
		t.sigs = append(t.sigs, v)
		t.fallback = append(t.fallback, r.Bool(sz.FallbackShare))
	}
	t.misses = loadgen.MissSignatures(seed, sz.Entries/10, t.sigs)
	return t
}

// config is entry i's configuration under bundle version v.
func (t *table) config(i int, v uint64) bitvec.Vector {
	cfg := t.def
	if !t.fallback[i] {
		bit := (i + int(v%bitvec.Width)) % bitvec.Width
		cfg.Assign(bit, !cfg.Get(bit))
	}
	return cfg
}

func (t *table) bundle(v uint64) *bundle.Bundle {
	b := &bundle.Bundle{Version: v, Workload: "bench", Default: t.def, Entries: make([]bundle.Entry, len(t.sigs))}
	for i, sig := range t.sigs {
		b.Entries[i] = bundle.Entry{Signature: sig, Config: t.config(i, v), Fallback: t.fallback[i]}
	}
	return b
}

// request indexes one signature of the stream: an entry (>=0) or miss -(k+1).
type request int32

func (t *table) sig(q request) bitvec.Vector {
	if q < 0 {
		return t.misses[-int(q)-1]
	}
	return t.sigs[q]
}

// expect appends the reply body the wire contract fixes for request q under
// version v — written out here, not taken from the server's encoder.
func (t *table) expect(buf []byte, q request, v uint64) []byte {
	kind, cfg := "default", t.def
	if q >= 0 {
		kind, cfg = "hit", t.config(int(q), v)
		if t.fallback[q] {
			kind = "fallback"
		}
	}
	buf = append(buf, `{"version":`...)
	buf = strconv.AppendUint(buf, v, 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, kind...)
	buf = append(buf, `","config":"`...)
	buf = append(buf, cfg.Hex()...)
	return append(buf, "\"}\n"...)
}

// stream draws one caller's signature sequence: Zipf(s) over the entries in
// a seeded order, a fixed share from unknown signatures.
func (t *table) stream(seed uint64, caller int, sz sizing) []request {
	r := xrand.New(seed).Derive("benchmark", "stream", strconv.Itoa(caller))
	cum := workload.ZipfProbs(len(t.sigs), sz.ZipfS)
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	rank := xrand.New(seed).Derive("benchmark", "rank").Perm(len(t.sigs))
	out := make([]request, sz.Stream)
	for i := range out {
		if r.Bool(sz.MissShare) {
			out[i] = request(-r.Intn(len(t.misses)) - 1)
			continue
		}
		k := sort.SearchFloat64s(cum, r.Float64())
		if k >= len(rank) {
			k = len(rank) - 1
		}
		out[i] = request(rank[k])
	}
	return out
}

// daemon is one steerqd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// buildSteerqd builds the daemon when run.sh did not hand one over (go run,
// go test). The package path resolves from the repository root and from the
// benchmark's own module alike.
func buildSteerqd(scratch string) (string, error) {
	out, err := filepath.Abs(filepath.Join(scratch, "steerqd"))
	if err != nil {
		return "", fmt.Errorf("benchmark: steerqd path: %w", err)
	}
	if msg, err := exec.Command("go", "build", "-o", out, "steerq/cmd/steerqd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: build steerqd: %w: %s", err, msg)
	}
	return out, nil
}

func startDaemon(rc *runCtx, bundlePath string) (*daemon, error) {
	addrFile := filepath.Join(rc.scratch, "steerqd.addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("benchmark: clear address file: %w", err)
	}
	cmd := exec.Command(rc.steerqd, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-bundle", bundlePath)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("benchmark: start steerqd: %w", err)
	}
	d := &daemon{cmd: cmd}
	for i := 0; i < 5000; i++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		time.Sleep(time.Millisecond)
	}
	if d.base == "" {
		d.stop()
		return nil, fmt.Errorf("benchmark: steerqd wrote no address")
	}
	if err := serve.WaitReady(d.base, 5*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("benchmark: %w", err)
	}
	return d, nil
}

// stop sends SIGTERM and waits; it reports whether the daemon drained to
// exit 0. A daemon that will not drain is killed, and waited for.
func (d *daemon) stop() bool {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err == nil
	case <-time.After(15 * time.Second): // steerq:allow-wallclock — a hang guard, not a measurement.
		_ = d.cmd.Process.Kill()
		<-done
		return false
	}
}

// scrape reads the daemon's /metrics into sample-line -> value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + serve.PathMetrics)
	if err != nil {
		return nil, fmt.Errorf("benchmark: scrape: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("benchmark: scrape: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

func lookups(m map[string]float64, outcome string) float64 {
	return m[`steerq_serve_lookups_total{outcome="`+outcome+`"}`]
}

type serveState struct {
	table   *table
	streams [][]request
	first   []byte // the version-1 bundle, encoded
	daemon  *daemon
}

func setupServe(rc *runCtx) (*serveState, error) {
	st := &serveState{table: newTable(rc.seed, rc.sz)}
	for c := 0; c < callers(); c++ {
		st.streams = append(st.streams, st.table.stream(rc.seed, c, rc.sz))
	}
	b := st.table.bundle(1)
	path := filepath.Join(rc.scratch, "serve.stqb")
	if err := b.WriteFile(path); err != nil {
		return nil, fmt.Errorf("benchmark: write bundle: %w", err)
	}
	var err error
	if st.first, err = os.ReadFile(path); err != nil {
		return nil, fmt.Errorf("benchmark: read bundle back: %w", err)
	}
	st.daemon, err = startDaemon(rc, path)
	return st, err
}

// caller is one closed-loop client: one keep-alive connection, the next
// request sent only when the previous reply has been read and checked — the
// compiler's one-lookup-per-job call pattern. Its state lasts the whole run;
// the phases only start and stop it.
type caller struct {
	client    *http.Client
	stream    []request
	pos       int
	last      uint64           // highest version seen on this connection
	firstSeen map[uint64]int64 // version -> arrival (ns since the load began) of the first reply carrying it
	latencyUs []float64        // the current phase's samples
	tally
}

// reload is one POST /v1/bundles.
type reload struct {
	version uint64
	start   int64 // ns since the load began
	post    time.Duration
}

// load is the closed-loop run against the daemon, cut into phases so the
// reference kernel can run between them.
type load struct {
	st      *serveState
	epoch   time.Time
	posted  atomic.Uint64 // highest version whose POST has begun
	callers []*caller
	poster  *http.Client
	reloads []reload
	tally
}

func newLoad(st *serveState) *load {
	l := &load{st: st, epoch: now(), poster: &http.Client{}}
	l.posted.Store(1)
	for _, stream := range st.streams {
		l.callers = append(l.callers, &caller{
			client:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
			stream:    stream,
			firstSeen: map[uint64]int64{},
		})
	}
	return l
}

func (l *load) close() {
	l.poster.CloseIdleConnections()
	for _, c := range l.callers {
		c.client.CloseIdleConnections()
	}
}

// run is one caller's loop for one phase. With a tracer it records one span
// per 1,000 requests.
func (l *load) run(c *caller, until time.Time, tr *tracer, phaseNo int) {
	t := l.st.table
	prefix := l.st.daemon.base + serve.PathSteer + "?sig="
	var body [256]byte
	var want []byte
	c.latencyUs = c.latencyUs[:0]
	spanID, spanN := 0, 0
	for t0 := now(); t0.Before(until); t0 = now() {
		q := c.stream[c.pos%len(c.stream)]
		c.pos++
		resp, err := c.client.Get(prefix + t.sig(q).Hex())
		if err != nil {
			c.check(false, "request: %v", err)
			continue
		}
		n, _ := io.ReadFull(resp.Body, body[:])
		resp.Body.Close()
		end := now()

		v := replyVersion(body[:n])
		want = t.expect(want[:0], q, v)
		ok := resp.StatusCode == http.StatusOK && v >= c.last && v >= 1 && v <= l.posted.Load() && bytes.Equal(body[:n], want)
		c.check(ok, "reply %q for %s (last version %d, posted %d)", body[:n], t.sig(q).Hex(), c.last, l.posted.Load())
		if !ok {
			continue
		}
		if v > c.last {
			c.firstSeen[v] = end.Sub(l.epoch).Nanoseconds()
			c.last = v
		}
		c.latencyUs = append(c.latencyUs, us(end.Sub(t0)))
		if tr != nil {
			if spanN == 0 {
				spanID = tr.start(0, "serve", "request", phaseNo)
			}
			if spanN++; spanN == 1000 {
				tr.end(spanID, spanN)
				spanN = 0
			}
		}
	}
	if spanN > 0 {
		tr.end(spanID, spanN)
	}
}

// reloader POSTs a new version every period until the phase ends, the first
// half a period in. The next version is encoded before the wait, off the
// reload's own clock.
func (l *load) reloader(until time.Time, period time.Duration, tr *tracer, phaseNo int) {
	for at := now().Add(period / 2); ; at = at.Add(period) {
		v := l.posted.Load() + 1
		data, err := l.st.table.bundle(v).Encode()
		if err != nil {
			l.check(false, "encode v%d: %v", v, err)
			return
		}
		// A POST must land, and its version be seen, before the callers stop.
		if at.Add(period / 4).After(until) {
			return
		}
		time.Sleep(at.Sub(now()))
		l.posted.Store(v)
		t0 := now()
		id := tr.start(0, "serve", "reload_post", phaseNo)
		resp, err := l.poster.Post(l.st.daemon.base+serve.PathBundles, "application/octet-stream", bytes.NewReader(data))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		tr.end(id, 1)
		l.check(err == nil && resp.StatusCode == http.StatusOK, "POST v%d: %v", v, err)
		l.reloads = append(l.reloads, reload{version: v, start: t0.Sub(l.epoch).Nanoseconds(), post: now().Sub(t0)})
	}
}

// phase runs every caller (and the reloader, when period > 0) for d and
// returns the replies' latencies and how long the phase really lasted.
func (l *load) phase(d, period time.Duration, tr *tracer, phaseNo int) (latencyUs []float64, wall time.Duration) {
	t0 := now()
	until := t0.Add(d)
	var wg sync.WaitGroup
	for _, c := range l.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			l.run(c, until, tr, phaseNo)
		}(c)
	}
	if period > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.reloader(until, period, tr, phaseNo)
		}()
	}
	wg.Wait()
	wall = now().Sub(t0)
	for _, c := range l.callers {
		latencyUs = append(latencyUs, c.latencyUs...)
	}
	return latencyUs, wall
}

// replyVersion reads the version a reply body carries (0 if it has none).
func replyVersion(body []byte) uint64 {
	rest, ok := bytes.CutPrefix(body, []byte(`{"version":`))
	if !ok {
		return 0
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0
	}
	v, _ := strconv.ParseUint(string(rest[:end]), 10, 64)
	return v
}

// nullWriter is the recorder the in-process handler timing writes into.
type nullWriter struct {
	h http.Header
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// inProcess times the serving tier without the wire: SDK.Lookup and
// Server.Handler().ServeHTTP over the workload's own signature stream.
func (st *serveState) inProcess(rc *runCtx, acc *layerAcc) error {
	reg := obs.New()
	sdk := serve.NewSDK(reg)
	if err := sdk.LoadBytes(st.first); err != nil {
		return fmt.Errorf("benchmark: in-process load: %w", err)
	}
	stream := st.streams[0]
	root := rc.tr.start(0, "bench", "in_process", 0)
	for lo := 0; lo < len(stream); lo += 1000 {
		hi := min(lo+1000, len(stream))
		id := rc.tr.start(root, "serve", "lookup", 0)
		d := stopwatch(func() {
			for _, q := range stream[lo:hi] {
				sdk.Lookup(st.table.sig(q))
			}
		})
		rc.tr.end(id, hi-lo)
		acc.add("serve.lookup_ns", float64(d.Nanoseconds())/float64(hi-lo))
	}
	handler := serve.NewServer(sdk, reg).Handler()
	n := min(len(stream), 20000)
	reqs := make([]*http.Request, n)
	for i := range reqs {
		req, err := http.NewRequest(http.MethodGet, serve.PathSteer+"?sig="+st.table.sig(stream[i]).Hex(), nil)
		if err != nil {
			return fmt.Errorf("benchmark: in-process request: %w", err)
		}
		reqs[i] = req
	}
	w := &nullWriter{h: http.Header{}}
	for lo := 0; lo < n; lo += 1000 {
		hi := min(lo+1000, n)
		id := rc.tr.start(root, "serve", "handler", 0)
		d := stopwatch(func() {
			for _, req := range reqs[lo:hi] {
				handler.ServeHTTP(w, req)
			}
		})
		rc.tr.end(id, hi-lo)
		acc.add("serve.handler_us", us(d)/float64(hi-lo))
	}
	rc.tr.end(root, 1)
	return nil
}

func runServe(rc *runCtx, reloading bool) (*result, error) {
	if rc.steerqd == "" {
		bin, err := buildSteerqd(rc.scratch)
		if err != nil {
			return nil, err
		}
		rc.steerqd = bin
	}
	res := &result{Metrics: map[string]float64{}}
	st, setupS, err := setupMedian(rc.sz.SetupReps,
		func() (*serveState, error) { return setupServe(rc) },
		func(st *serveState) error {
			res.check(st.daemon.stop(), "steerqd did not drain to exit 0 on SIGTERM")
			return nil
		})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			st.daemon.stop()
		}
	}()
	pid := st.daemon.cmd.Process.Pid

	warm := time.Duration(rc.sz.WarmUpMs) * time.Millisecond
	phase := time.Duration(rc.sz.PhaseMs) * time.Millisecond
	phases := max(int(rc.seconds*float64(time.Second)/float64(phase)), 1)
	if rc.traced() {
		phases = max(phases/2*2, 2)
	}
	var period time.Duration
	if reloading {
		period = time.Duration(rc.sz.ReloadMs) * time.Millisecond
	}
	l := newLoad(st)
	defer l.close()
	l.phase(warm, period, nil, 0)
	m0, err := st.daemon.scrape()
	if err != nil {
		return nil, err
	}
	// Per phase: correct replies per second, the latency percentiles and the
	// daemon's CPU per reply — speed-normalised for the end-to-end metrics,
	// raw for the traced run's. Odd phases of a traced run record spans.
	var ops, p50ms, cpuMs, rps, p50, p99, evenRps, oddRps []float64
	sp := newSpeedometer(callers())
	for k := 0; k < phases; k++ {
		var tr *tracer
		if k%2 == 1 {
			tr = rc.tr
		}
		cpu0, err0 := procCPU(pid)
		lat, wall := l.phase(phase, period, tr, k+1)
		cpu1, err1 := procCPU(pid)
		if err0 != nil || err1 != nil {
			return nil, fmt.Errorf("benchmark: daemon CPU: %v, %v", err0, err1)
		}
		f := sp.factor()
		if !res.check(len(lat) > 0, "phase %d: no correct reply", k+1) {
			continue
		}
		n := float64(len(lat))
		ops = append(ops, n/(wall.Seconds()*f))
		p50ms = append(p50ms, quantile(lat, 0.5)*f/1e3)
		cpuMs = append(cpuMs, ms(cpu1-cpu0)*f/n)
		r := n / wall.Seconds()
		rps = append(rps, r)
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		if k%2 == 0 {
			evenRps = append(evenRps, r)
		} else {
			oddRps = append(oddRps, r)
		}
	}
	m1, err := st.daemon.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	stopped = true
	res.check(st.daemon.stop(), "steerqd did not drain to exit 0 on SIGTERM")

	var replies float64
	for _, c := range l.callers {
		res.merge(c.tally)
		replies += float64(c.Attempted - c.Failed)
	}
	res.merge(l.tally)
	served := lookups(m1, "hit") + lookups(m1, "fallback") + lookups(m1, "default") + lookups(m1, "unloaded")
	res.check(served == replies, "daemon counted %v lookups, the callers read %v correct replies", served, replies)

	if !rc.traced() {
		res.Metrics = endToEndMetrics(ops, p50ms, cpuMs, setupS)
		return res, nil
	}

	acc := newLayerAcc()
	if err := st.inProcess(rc, acc); err != nil {
		return nil, err
	}
	bundleLayer(acc, st.first)
	b, err := bundle.Decode(st.first)
	if err != nil {
		return nil, fmt.Errorf("benchmark: decode own bundle: %w", err)
	}
	acc.add("bundle.encode_us", us(stopwatch(func() { _, err = b.Encode() })))
	acc.add("bundle.write_us", us(stopwatch(func() { err = b.WriteFile(filepath.Join(rc.scratch, "serve.stqb")) })))
	acc.add("bundle.bytes", float64(len(st.first)))
	acc.add("bundle.entries", float64(len(b.Entries)))
	var visible []float64
	for _, r := range l.reloads {
		acc.add("serve.reload_post_ms", ms(r.post))
		seen := int64(-1)
		for _, c := range l.callers {
			if at, ok := c.firstSeen[r.version]; ok && (seen < 0 || at < seen) {
				seen = at
			}
		}
		// A version overtaken before any caller's next request never shows;
		// the one that overtook it does, and counts from its own POST.
		if seen >= 0 {
			visible = append(visible, float64(seen-r.start)/1e6)
		}
	}
	m := acc.layerMetrics()
	m["serve.wire_us"] = median(p50) - m["serve.handler_us"]
	during := func(outcome string) float64 { return lookups(m1, outcome) - lookups(m0, outcome) }
	all := during("hit") + during("fallback") + during("default")
	m["serve.hit_share"] = ratio(during("hit"), all)
	m["serve.fallback_share"] = ratio(during("fallback"), all)
	m["serve.default_share"] = ratio(during("default"), all)
	m["serve.swaps"] = m1["steerq_serve_bundle_swaps_total"] - m0["steerq_serve_bundle_swaps_total"]
	m["serve.rejected"] = m1["steerq_serve_bundle_rejected_total"] - m0["steerq_serve_bundle_rejected_total"]
	m["peak_rss_mb"] = rss
	m["steer_p50_us"] = median(p50)
	m["steer_p99_us"] = median(p99)
	m["reload_visible_ms"] = median(visible)
	benchMetrics(m, sp, 100*(ratio(median(evenRps), median(oddRps))-1), rps)
	res.Metrics = m
	return res, nil
}
