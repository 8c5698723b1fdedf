package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steerq/internal/bitvec"
	"steerq/internal/loadgen"
	"steerq/internal/obs"
)

// TestWaitReadyBoundedByBudget: a peer that accepts connections and never
// answers must not hold WaitReady past its budget.
func TestWaitReadyBoundedByBudget(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		var conns []net.Conn // held open, never written to
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepting
	})

	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- WaitReady("http://"+ln.Addr().String(), 300*time.Millisecond) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("WaitReady reported a silent peer ready")
		}
		t.Logf("silent peer: %v after %v", err, time.Since(start))
	case <-time.After(2 * time.Second):
		t.Fatal("WaitReady(300ms) still blocked after 2s on a peer that never answers")
	}
}

// TestSteerDecodes: the HTTP client reconstructs the exact Decision an SDK
// lookup yields, entry by entry, and for a signature the bundle does not
// hold.
func TestSteerDecodes(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	b := testBundle(t, 2, 9)
	if err := s.SDK().Load(b); err != nil {
		t.Fatal(err)
	}
	sigs := make([]bitvec.Vector, len(b.Entries))
	for i, e := range b.Entries {
		sigs[i] = e.Signature
	}
	miss := loadgen.MissSignatures(1, 1, sigs)[0]
	for i, sig := range append(sigs, miss) {
		want, ok := s.SDK().Lookup(sig)
		if !ok {
			t.Fatal("sdk lookup failed")
		}
		got, err := Steer(base, sig)
		if err != nil {
			t.Fatalf("signature %d: %v", i, err)
		}
		if got.Version != want.Version || got.Kind != want.Kind || !got.Config.Equal(want.Config) {
			t.Fatalf("signature %d: http %+v, sdk %+v", i, got, want)
		}
	}
	if got, _ := Steer(base, miss); got.Kind != KindDefault || !got.Config.Equal(b.Default) {
		t.Fatalf("miss decision %+v", got)
	}
}

// TestSteerErrors pins the client's error taxonomy: an unloaded daemon's 503
// is a *StatusError; a malformed answer is a decode error, not a status and
// never a decision.
func TestSteerErrors(t *testing.T) {
	_, base := startServer(t, obs.NewWithClock(obs.FrozenClock()))
	if _, err := Steer(base, vec(1)); !isStatus(err, http.StatusServiceUnavailable) {
		t.Fatalf("unloaded daemon error %v", err)
	}

	for name, body := range map[string]string{
		"bad json":   `{"version":`,
		"bad kind":   `{"version":1,"kind":"sideways","config":"00"}`,
		"bad config": `{"version":1,"kind":"hit","config":"zz"}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(body))
		}))
		_, err := Steer(srv.URL, vec(1))
		srv.Close()
		if err == nil {
			t.Fatalf("%s: decoded a decision from garbage", name)
		}
		var se *StatusError
		if errors.As(err, &se) {
			t.Fatalf("%s: garbage misreported as status error %v", name, err)
		}
	}
}

func isStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// TestSteerMidDrain: four goroutines steer against a daemon that begins to
// drain, then shuts down, under them. Every answer either matches the bundle
// oracle or is a failure — a torn or fabricated decision never appears — and
// once Shutdown has returned a request fails with a transport error, not a
// status: nothing is listening.
func TestSteerMidDrain(t *testing.T) {
	reg := obs.NewWithClock(obs.FrozenClock())
	s, base := startServer(t, reg)
	b := testBundle(t, 1, 24)
	if err := s.SDK().Load(b); err != nil {
		t.Fatal(err)
	}
	sigs := make([]bitvec.Vector, 0, len(b.Entries)+6)
	for _, e := range b.Entries {
		sigs = append(sigs, e.Signature)
	}
	sigs = append(sigs, loadgen.MissSignatures(99, 6, sigs)...)
	oracle := NewTable(b)

	const drainAfter = 50
	var completed, refused atomic.Int64
	drained := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < g+400; i++ {
				select {
				case <-drained:
					return
				default:
				}
				sig := sigs[i%len(sigs)]
				d, err := Steer(base, sig)
				if err != nil {
					refused.Add(1) // legal once the drain began
					continue
				}
				if want := oracle.Lookup(sig); d.Version != want.Version || d.Kind != want.Kind || !d.Config.Equal(want.Config) {
					t.Errorf("goroutine %d: torn decision %+v for %s, want %+v", g, d, sig.Hex(), want)
				}
				if completed.Add(1) == drainAfter {
					go func() {
						defer close(drained)
						s.BeginDrain()
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						defer cancel()
						if err := s.Shutdown(ctx); err != nil {
							t.Errorf("shutdown: %v", err)
						}
					}()
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatalf("drain never finished; %d completions (drain starts at %d)", completed.Load(), drainAfter)
	}
	t.Logf("%d answers, %d refusals", completed.Load(), refused.Load())

	if _, err := Steer(base, b.Entries[0].Signature); err == nil {
		t.Fatal("steer succeeded after the drain completed")
	} else if errors.As(err, new(*StatusError)) {
		t.Fatalf("post-drain request answered with a status, want a refused transport: %v", err)
	}
}
