// Package serve is steerq's online serving tier: the decision-table and
// handler logic behind cmd/steerqd, plus the embeddable SDK the batch tools
// use to consult steering in-process.
//
// The paper's production successor ("Deploying a Steered Query Optimizer in
// Production at Microsoft") deploys steering as a recommendation service the
// compiler calls once per job, at microsecond latency, fed by versioned
// artifacts from an offline pipeline. This package reproduces that shape:
//
//   - Table is one bundle compiled into an immutable in-memory decision
//     table — built once, then only read;
//   - SDK owns an atomic pointer to the active Table and swaps it whole on
//     bundle load, so every lookup sees exactly one bundle version end to
//     end (see DESIGN.md, "Immutable tables & atomic swap");
//   - Server is the HTTP surface: GET /v1/steer lookups, POST /v1/bundles
//     hot reload (the one way a bundle goes live after boot), /metrics (the
//     live text exposition of internal/obs), /healthz and /readyz, and
//     graceful drain for SIGTERM handling;
//   - Steer is the one HTTP client of that surface, decoding a reply into
//     the same Decision an SDK lookup yields; WaitReady is its boot wait.
//
// The lookup read path is allocation-free after warmup: instruments are
// resolved once at SDK construction, the table is a plain map keyed by the
// comparable bitvec.Key, and decisions are returned by value;
// TestLookupAllocationFree holds it there.
package serve
