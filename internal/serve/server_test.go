package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"steerq/internal/obs"
)

func TestLifecycleTransitions(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s := NewServer(NewSDK(reg), reg)
	if st := s.State(); st != StateStarting {
		t.Fatalf("fresh server state %v", st)
	}

	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// The lifecycle walks no-bundle -> ready -> draining; at each stage the
	// probe pair must answer exactly as the table says.
	steps := []struct {
		name        string
		move        func()
		state       State
		healthzCode int
		readyzCode  int
		readyzBody  string
	}{
		{
			name:  "listening without a bundle",
			move:  func() {},
			state: StateNoBundle, healthzCode: 200, readyzCode: 503, readyzBody: "no-bundle",
		},
		{
			name: "bundle loaded",
			move: func() {
				if err := s.SDK().Load(testBundle(t, 1, 3)); err != nil {
					t.Fatal(err)
				}
			},
			state: StateReady, healthzCode: 200, readyzCode: 200, readyzBody: "ready",
		},
		{
			name:  "draining",
			move:  func() { s.BeginDrain() },
			state: StateDraining, healthzCode: 503, readyzCode: 503, readyzBody: "draining",
		},
	}
	for _, step := range steps {
		step.move()
		if st := s.State(); st != step.state {
			t.Fatalf("%s: state %v, want %v", step.name, st, step.state)
		}
		code, _ := get(t, base+PathHealthz)
		if code != step.healthzCode {
			t.Fatalf("%s: healthz %d, want %d", step.name, code, step.healthzCode)
		}
		code, body := get(t, base+PathReadyz)
		if code != step.readyzCode || !strings.Contains(body, step.readyzBody) {
			t.Fatalf("%s: readyz %d %q, want %d %q", step.name, code, body, step.readyzCode, step.readyzBody)
		}
	}
	if s.BeginDrain() {
		t.Fatal("second BeginDrain reported first")
	}
}

// TestHalfSentHeaderIsClosed: a client that stops mid-header is disconnected
// by the server within readHeaderTimeout, and while it hangs the daemon keeps
// answering on other connections.
func TestHalfSentHeaderIsClosed(t *testing.T) {
	t.Parallel()
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	b := testBundle(t, 1, 3)
	if err := s.SDK().Load(b); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET "+PathSteer+" HTTP/1.1\r\nHost: steerqd\r\n"); err != nil {
		t.Fatal(err)
	}

	if code, body := get(t, base+PathReadyz); code != 200 {
		t.Fatalf("readyz beside a stalled connection: %d %q", code, body)
	}
	if code, body := get(t, base+PathSteer+"?sig="+b.Entries[0].Signature.Hex()); code != 200 {
		t.Fatalf("steer beside a stalled connection: %d %q", code, body)
	}

	// The server hangs up (EOF or reset, possibly after an error reply); only
	// this test's own read deadline passing first is a failure.
	const slack = 5 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("half-sent header still open %v after its first byte (bound %v)", time.Since(start), readHeaderTimeout)
	}
}

func TestSteerEndpoint(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)

	// Unloaded: a well-formed query gets 503.
	sig := sigFor(0)
	if code, _ := get(t, base+PathSteer+"?sig="+sig.Hex()); code != 503 {
		t.Fatalf("unloaded steer code %d", code)
	}

	b := testBundle(t, 9, 4)
	if err := s.SDK().Load(b); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		url  string
		code int
	}{
		{"missing sig", base + PathSteer, 400},
		{"bad hex", base + PathSteer + "?sig=zzzz", 400},
		{"hit", base + PathSteer + "?sig=" + b.Entries[0].Signature.Hex(), 200},
		{"fallback", base + PathSteer + "?sig=" + b.Entries[2].Signature.Hex(), 200},
		{"miss", base + PathSteer + "?sig=" + vec(250).Hex(), 200},
	}
	wantKind := map[string]string{"hit": "hit", "fallback": "fallback", "miss": "default"}
	wantCfg := map[string]string{
		"hit":      b.Entries[0].Config.Hex(),
		"fallback": b.Entries[2].Config.Hex(),
		"miss":     b.Default.Hex(),
	}
	for _, c := range cases {
		code, body := get(t, c.url)
		if code != c.code {
			t.Fatalf("%s: code %d, want %d (body %q)", c.name, code, c.code, body)
		}
		if code != 200 {
			var e ErrorResponse
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
				t.Fatalf("%s: error body %q", c.name, body)
			}
			continue
		}
		var r SteerResponse
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.Version != 9 || r.Kind != wantKind[c.name] || r.Config != wantCfg[c.name] {
			t.Fatalf("%s: response %+v", c.name, r)
		}
	}

	// Wrong method.
	resp, err := http.Post(base+PathSteer, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST steer code %d", resp.StatusCode)
	}

	// The request counter saw the steer traffic; the probes stayed uncounted.
	if got := reg.Counter("steerq_serve_requests_total", "path", PathSteer, "code", "200").Value(); got != 3 {
		t.Fatalf("steer 200 counter %d, want 3", got)
	}
	if got := reg.Counter("steerq_serve_requests_total", "path", PathSteer, "code", "400").Value(); got != 2 {
		t.Fatalf("steer 400 counter %d, want 2", got)
	}
	get(t, base+PathHealthz)
	for _, cp := range reg.Snapshot().Counters {
		if cp.Name != "steerq_serve_requests_total" {
			continue
		}
		for _, l := range cp.Labels {
			if l.Key == "path" && (l.Value == PathHealthz || l.Value == PathReadyz) {
				t.Fatalf("probe path %s was counted", l.Value)
			}
		}
	}
}

func TestBundlesEndpoint(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	_, base := startServer(t, reg)

	if code, _ := get(t, base+PathBundles); code != 404 {
		t.Fatalf("bundles before load: %d", code)
	}

	b := testBundle(t, 5, 4)
	code, body := postBundle(t, base, encodeBundle(t, b))
	if code != 200 {
		t.Fatalf("POST bundle code %d", code)
	}
	var info BundleInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	want := BundleInfo{
		Version: 5, Workload: "W", Entries: 4,
		Checksum: fmt.Sprintf("%016x", b.Checksum()), CreatedUnix: 1700000000,
	}
	if info != want {
		t.Fatalf("bundle info %+v, want %+v", info, want)
	}

	code, body = get(t, base+PathBundles)
	var got BundleInfo
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if code != 200 || got != want {
		t.Fatalf("GET bundles %d %+v", code, got)
	}

	// A corrupt upload is refused and the active bundle survives.
	if code, _ = postBundle(t, base, []byte("definitely not a bundle")); code != 400 {
		t.Fatalf("corrupt POST code %d", code)
	}
	if _, body = get(t, base+PathBundles); !strings.Contains(body, `"version":5`) {
		t.Fatalf("active bundle lost after corrupt upload: %s", body)
	}

	req, err := http.NewRequest(http.MethodDelete, base+PathBundles, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("DELETE bundles code %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	if err := s.SDK().Load(testBundle(t, 2, 3)); err != nil {
		t.Fatal(err)
	}
	get(t, base+PathSteer+"?sig="+sigFor(0).Hex())

	resp, err := http.Get(base + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"steerq_serve_lookups_total", "steerq_serve_bundle_version",
		"steerq_serve_lookup_seconds", "steerq_serve_requests_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, body)
		}
	}
}

// TestGracefulDrainCompletesInFlight pins a steer request in-flight, starts
// the drain, and checks the three-part contract: the drain waits for the
// pinned request, new connections are refused, and the pinned request still
// completes successfully.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	if err := s.SDK().Load(testBundle(t, 1, 3)); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	s.holdSteer = (func() {
		entered <- struct{}{}
		<-release
	})

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + PathSteer + "?sig=" + sigFor(0).Hex())
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: string(body)}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()

	// The drain must not complete while the request is pinned.
	select {
	case err := <-drained:
		t.Fatalf("shutdown returned with a request in-flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New connections are refused once the listener closed. The listener
	// close races with Shutdown's start, so poll briefly.
	refused := false
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + PathHealthz)
		if err != nil {
			refused = true
			break
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if !refused {
		t.Fatal("new connections still accepted during drain")
	}

	close(release)
	r := <-inflight
	if r.err != nil || r.code != 200 {
		t.Fatalf("in-flight request did not complete cleanly: %+v", r)
	}
	var sr SteerResponse
	if err := json.Unmarshal([]byte(r.body), &sr); err != nil || sr.Version != 1 {
		t.Fatalf("in-flight response body %q: %v", r.body, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDrainOnSignalGraceful(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, _ := startServer(t, reg)
	if err := s.SDK().Load(testBundle(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 2)
	done := make(chan bool, 1)
	go func() { done <- s.DrainOnSignal(sig, time.Second) }()
	sig <- syscall.SIGTERM
	if forced := <-done; forced {
		t.Fatal("idle drain reported forced")
	}
	if st := s.State(); st != StateDraining {
		t.Fatalf("state after drain %v", st)
	}
}

// TestDrainOnSignalDoubleForces pins a request so the graceful drain can
// never finish, then delivers a second signal: the escape hatch must force
// the shutdown and report it.
func TestDrainOnSignalDoubleForces(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	if err := s.SDK().Load(testBundle(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s.holdSteer = (func() {
		entered <- struct{}{}
		<-release
	})
	go func() {
		resp, err := http.Get(base + PathSteer + "?sig=" + sigFor(0).Hex())
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	sig := make(chan os.Signal, 2)
	done := make(chan bool, 1)
	go func() { done <- s.DrainOnSignal(sig, 0) }()
	sig <- syscall.SIGTERM
	// Let the graceful drain start and wedge on the pinned request.
	time.Sleep(20 * time.Millisecond)
	sig <- syscall.SIGTERM
	select {
	case forced := <-done:
		if !forced {
			t.Fatal("double signal did not report forced")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("double signal did not force shutdown")
	}
}
