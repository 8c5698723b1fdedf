// Command steerqd is the long-running steering service: it loads a versioned
// decision-table bundle produced by the offline pipeline (`steerq bundle`)
// and answers per-job steering lookups over HTTP.
//
//	steerqd -addr 127.0.0.1:7311 [-bundle active.stqb] [-metrics-out snap.json]
//
// Surface:
//
//	GET  /v1/steer?sig=<hex>  decision for one default rule signature
//	GET  /v1/bundles          active bundle info
//	POST /v1/bundles          hot-swap a new bundle (atomic; rejects keep the old table)
//	GET  /metrics             Prometheus-style text exposition
//	GET  /healthz             liveness (503 once draining)
//	GET  /readyz              readiness (200 only with a live bundle)
//
// A -bundle that fails to load is fatal. Without -bundle the daemon boots
// into the no-bundle state (readyz 503); after boot a bundle goes live only
// through POST /v1/bundles. The daemon drains gracefully on SIGTERM/SIGINT:
// the listener closes, in-flight requests finish (bounded by -drain-timeout),
// the -metrics-out JSON snapshot is flushed, and the process exits 0. A
// second signal forces an immediate close and exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"steerq/internal/obs"
	"steerq/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "steerqd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("steerqd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7311", "listen address (use :0 with -addr-file for an ephemeral port)")
	bundlePath := fs.String("bundle", "", "bundle file to load at startup (a load failure is fatal; without it, POST /v1/bundles makes the daemon ready)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (written atomically)")
	metricsOut := fs.String("metrics-out", "", "write the JSON metrics snapshot to this file on exit")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain (0 = wait forever)")
	fs.Parse(args)

	reg := obs.NewWithClock(obs.ClockFromEnv())
	sdk := serve.NewSDK(reg)
	srv := serve.NewServer(sdk, reg)

	if *bundlePath != "" {
		if err := sdk.LoadFile(*bundlePath); err != nil {
			return err
		}
		t := sdk.Active()
		fmt.Fprintf(os.Stderr, "steerqd: bundle v%d (%s, %d entries, %016x) loaded\n",
			t.Version(), t.Workload(), t.Len(), t.Checksum())
	}

	if err := srv.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "steerqd: serving on http://%s (state %s)\n", srv.Addr(), srv.State())
	if *addrFile != "" {
		if err := serve.WriteFileAtomic(*addrFile, []byte(srv.Addr()+"\n")); err != nil {
			_ = srv.Close()
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	forced := srv.DrainOnSignal(sig, *drainTimeout)
	if forced {
		fmt.Fprintln(os.Stderr, "steerqd: second signal, forced shutdown")
	} else {
		fmt.Fprintln(os.Stderr, "steerqd: drained")
	}

	if *metricsOut != "" {
		if err := reg.Snapshot().WriteFile(*metricsOut); err != nil {
			return fmt.Errorf("flush metrics: %w", err)
		}
	}
	if forced {
		os.Exit(1)
	}
	return nil
}
