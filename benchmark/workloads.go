package main

// workloads are the five traffic shapes. Each puts a different layer on the
// critical path, so every mechanism has one workload that can show it and
// one that bypasses it.
func workloads() []workloadDef {
	return []workloadDef{
		{Name: "discover_cold",
			Why: "every analysed job is distinct and each day gets a fresh pipeline and cache: cascades+steering candidate recompiles do most of the work, par is on the path, the compile cache cannot help",
			Run: func(rc *runCtx) (*result, error) { return runDiscover(rc, false) }},
		{Name: "discover_rerun",
			Why: "the same passes re-run through one long-lived pipeline whose cache set-up filled (backfill / re-analysis): recompiles become cache probes, exec+abtest dominate, par is bypassed",
			Run: func(rc *runCtx) (*result, error) { return runDiscover(rc, true) }},
		{Name: "learn_groups",
			Why: "per-group arms -> collect -> train -> evaluate -> save/load on Workload B: nn training and exec are most of this path and absent from the others",
			Run: runLearn},
		{Name: "serve_steady",
			Why: "closed-loop keep-alive callers against a real steerqd serving a 20,000-entry bundle, Zipf signatures with 10% misses: serve + net/http are all of the work, nothing offline runs",
			Run: func(rc *runCtx) (*result, error) { return runServe(rc, false) }},
		{Name: "serve_reload",
			Why: "the same daemon and callers while a new bundle version is POSTed every 250 ms: decode + table build + swap share the daemon's cores with lookups, so work moved to table-build time shows its cost",
			Run: func(rc *runCtx) (*result, error) { return runServe(rc, true) }},
	}
}
