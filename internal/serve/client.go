package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"steerq/internal/bitvec"
)

// WaitReady polls base's readiness probe until it answers 200 or the budget
// is spent. The budget bounds every probe, one in flight included, so a peer
// that accepts connections but never answers cannot hold the caller more
// than one poll interval past it. It is the one boot-wait implementation
// shared by the CLI (-wait-ready), the benchmark's daemon start-up and the
// test harnesses.
func WaitReady(base string, budget time.Duration) error {
	const pollEvery = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathReadyz, nil)
		if err != nil {
			return fmt.Errorf("serve: readiness probe: %w", err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("serve: daemon at %s not ready after %v", base, budget)
		}
		time.Sleep(pollEvery)
	}
}

// StatusError is a non-200 answer from the daemon: it spoke and refused.
// Transport errors (connection refused, reset) keep their own types, which is
// how a caller tells a daemon that answers 503 from one that is gone.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: daemon returned %d: %s", e.Code, e.Msg)
}

// Steer is the HTTP steering client: it asks the daemon at base (e.g.
// "http://127.0.0.1:7311") for sig's decision and decodes the reply into the
// Decision an SDK lookup of the same table yields. A non-200 reply is a
// *StatusError; a reply that does not decode — bad JSON, an unknown kind, a
// config that is not hex — is an error, never a decision.
func Steer(base string, sig bitvec.Vector) (Decision, error) {
	resp, err := http.Get(base + PathSteer + "?sig=" + sig.Hex())
	if err != nil {
		return Decision{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return Decision{}, &StatusError{Code: resp.StatusCode, Msg: er.Error}
	}
	var sr SteerResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return Decision{}, fmt.Errorf("serve: decode steer response: %w", err)
	}
	kind, ok := ParseKind(sr.Kind)
	if !ok {
		return Decision{}, fmt.Errorf("serve: unknown decision kind %q", sr.Kind)
	}
	cfg, err := bitvec.ParseHex(sr.Config)
	if err != nil {
		return Decision{}, fmt.Errorf("serve: bad config in steer response: %w", err)
	}
	return Decision{Config: cfg, Version: sr.Version, Kind: kind}, nil
}

// WriteFileAtomic writes data via a temp file in path's directory and a
// rename, so a reader polling the path (steerqd's -addr-file) never observes
// a partial write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
