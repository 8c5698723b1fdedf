package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/obs"
)

// State is the daemon lifecycle: starting (not yet listening), no-bundle
// (listening, nothing to serve), ready (listening with a live table) and
// draining (shutdown begun; in-flight requests finishing, new ones
// refused).
type State int32

const (
	StateStarting State = iota
	StateNoBundle
	StateReady
	StateDraining
)

var stateNames = [...]string{"starting", "no-bundle", "ready", "draining"}

// String renders the state's wire name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "starting"
}

// HTTP surface paths.
const (
	PathSteer   = "/v1/steer"
	PathBundles = "/v1/bundles"
	PathMetrics = "/metrics"
	PathHealthz = "/healthz"
	PathReadyz  = "/readyz"
)

// requestsMetric counts served requests by path and status class. The
// health probes are deliberately excluded: load balancers poll them at
// their own cadence, which would make frozen-clock metric goldens depend on
// probe timing.
const requestsMetric = "steerq_serve_requests_total"

// MaxBundleUpload bounds one POST /v1/bundles body.
const MaxBundleUpload = 16 << 20

// readHeaderTimeout bounds how long a connection may take to send one
// request's header. Without it a client that opens a connection and never
// finishes its request line holds a goroutine and a descriptor for the
// daemon's lifetime. Idle keep-alive connections are not affected: the clock
// starts with a request's first byte.
const readHeaderTimeout = 5 * time.Second

// SteerResponse is the GET /v1/steer reply.
type SteerResponse struct {
	// Version is the bundle version that decided this lookup.
	Version uint64 `json:"version"`
	// Kind is the Decision kind wire name: "hit", "fallback" or "default".
	Kind string `json:"kind"`
	// Config is the recommended rule configuration, hex-encoded exactly as
	// bitvec.Vector.Hex renders it.
	Config string `json:"config"`
}

// BundleInfo describes the active bundle (GET or POST /v1/bundles reply).
type BundleInfo struct {
	Version     uint64 `json:"version"`
	Workload    string `json:"workload"`
	Entries     int    `json:"entries"`
	Checksum    string `json:"checksum"`
	CreatedUnix int64  `json:"created_unix"`
}

// ErrorResponse is the JSON error body every non-2xx reply carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Server is the daemon's HTTP surface over one SDK. Build with NewServer,
// then either Start a listener or mount Handler() under a test server. All
// methods are safe for concurrent use.
type Server struct {
	sdk *SDK
	reg *obs.Registry

	started  atomic.Bool
	draining atomic.Bool

	ln  net.Listener
	srv *http.Server

	// holdSteer, when non-nil, is called by the steer handler before the
	// lookup — a test seam that lets the drain tests pin a request
	// in-flight. Never set in production.
	holdSteer func()
}

// NewServer builds a server over sdk, recording request counters into reg
// (nil for uninstrumented).
func NewServer(sdk *SDK, reg *obs.Registry) *Server {
	s := &Server{sdk: sdk, reg: reg}
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// SDK returns the server's SDK, the table POST /v1/bundles swaps.
func (s *Server) SDK() *SDK { return s.sdk }

// State derives the lifecycle state: draining dominates, then
// starting-vs-listening, then bundle presence.
func (s *Server) State() State {
	switch {
	case s.draining.Load():
		return StateDraining
	case !s.started.Load():
		return StateStarting
	case s.sdk.Ready():
		return StateReady
	default:
		return StateNoBundle
	}
}

// Handler returns the full route table. The steer and bundle routes are
// wrapped in the request counter; the probes are not (see requestsMetric).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathSteer, s.counted(PathSteer, s.handleSteer))
	mux.HandleFunc(PathBundles, s.counted(PathBundles, s.handleBundles))
	mux.HandleFunc(PathMetrics, s.handleMetrics)
	mux.HandleFunc(PathHealthz, s.handleHealthz)
	mux.HandleFunc(PathReadyz, s.handleReadyz)
	return mux
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusLabel maps a status code onto the closed label set the requests
// counter uses.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusServiceUnavailable:
		return "503"
	default:
		return "other"
	}
}

// counted wraps a handler with the per-path request counter.
func (s *Server) counted(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.reg.Counter(requestsMetric, "path", path, "code", statusLabel(sw.code)).Inc()
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// handleSteer answers GET /v1/steer?sig=<hex> from the active table.
func (s *Server) handleSteer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "steer: GET only")
		return
	}
	raw := r.URL.Query().Get("sig")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "steer: missing sig parameter")
		return
	}
	sig, err := bitvec.ParseHex(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "steer: bad sig: "+err.Error())
		return
	}
	if s.holdSteer != nil {
		s.holdSteer()
	}
	d, ok := s.sdk.Lookup(sig)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "steer: no bundle loaded")
		return
	}
	writeJSON(w, http.StatusOK, SteerResponse{
		Version: d.Version,
		Kind:    d.Kind.String(),
		Config:  d.Config.Hex(),
	})
}

// activeInfo renders the active table (nil when no bundle is live).
func (s *Server) activeInfo() *BundleInfo {
	t := s.sdk.Active()
	if t == nil {
		return nil
	}
	return &BundleInfo{
		Version:     t.version,
		Workload:    t.workload,
		Entries:     t.Len(),
		Checksum:    fmt.Sprintf("%016x", t.checksum),
		CreatedUnix: t.createdUnix,
	}
}

// handleBundles serves GET (active-bundle info) and POST (hot reload) on
// /v1/bundles. A rejected upload leaves the active table untouched.
func (s *Server) handleBundles(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		info := s.activeInfo()
		if info == nil {
			writeError(w, http.StatusNotFound, "bundles: no bundle loaded")
			return
		}
		writeJSON(w, http.StatusOK, *info)
	case http.MethodPost:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBundleUpload))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bundles: read body: "+err.Error())
			return
		}
		if err := s.sdk.LoadBytes(data); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, *s.activeInfo())
	default:
		writeError(w, http.StatusMethodNotAllowed, "bundles: GET or POST only")
	}
}

// handleMetrics serves the Prometheus-style text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	if err := s.reg.Snapshot().Text(&b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// handleHealthz is liveness: 200 while the process serves, 503 once drain
// begins (the signal for a balancer to stop routing here).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, StateDraining.String(), http.StatusServiceUnavailable)
		return
	}
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: 200 only with a live bundle and no drain in
// progress. The body always names the lifecycle state.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.State()
	if st != StateReady {
		http.Error(w, st.String(), http.StatusServiceUnavailable)
		return
	}
	_, _ = io.WriteString(w, StateReady.String()+"\n")
}

// Start binds addr and serves in the background until Shutdown or Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.started.Store(true)
	go func() { _ = s.srv.Serve(ln) }()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// BeginDrain flips the server into the draining state: health flips to 503
// and readiness reports draining. It does not stop the listener — Shutdown
// does — so a balancer sees the drain before connections start failing.
// Returns true on the first call, false if drain had already begun.
func (s *Server) BeginDrain() bool {
	return s.draining.CompareAndSwap(false, true)
}

// Shutdown drains gracefully: new requests are refused (the listener
// closes), in-flight requests run to completion, and the call returns when
// every connection has finished or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}

// Close abandons graceful drain and closes every connection immediately.
func (s *Server) Close() error {
	s.BeginDrain()
	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	return nil
}

// DrainOnSignal blocks until a signal arrives, then drains gracefully with
// the given timeout. A second signal while the drain is still running
// forces an immediate Close — the double-SIGTERM escape hatch — and
// reports forced=true. The caller owns flushing metrics and exiting.
func (s *Server) DrainOnSignal(sig <-chan os.Signal, timeout time.Duration) (forced bool) {
	<-sig
	done := make(chan error, 1)
	go func() {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		done <- s.Shutdown(ctx)
	}()
	select {
	case <-done:
		return false
	case <-sig:
		_ = s.Close()
		<-done
		return true
	}
}
