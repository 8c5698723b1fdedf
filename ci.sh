#!/bin/sh
# ci.sh — the full steerq gate. Run from the repository root.
#
# Stages, in order:
#   1. go build ./...            everything compiles
#   2. gofmt -l                  no unformatted files
#   3. go vet ./...              stdlib vet findings
#   4. go run ./cmd/steerq-lint  all eight project analyzers (see README); each
#                                finding prints to the log as
#                                file:line:col: analyzer: message and any
#                                finding fails the stage
#   5. go test -race ./...       unit + property + golden tests under the
#                                race detector, with plan validation forced
#                                on via STEERQ_CHECK_PLANS — the serving
#                                client's drain battery (TestSteerMidDrain)
#                                and WaitReady's budget bound among them
#   6. parallel smoke            the pipeline determinism tests — the
#                                BuildBundle/Group fan-out battery, the fault
#                                batteries, the warm re-pass (no compile, kept
#                                plans executed concurrently), the experiment
#                                runner's, the faulted build held to its
#                                pre-session baseline, one session per
#                                analysis (TestAnalyzeSharesOneSession),
#                                re-execution (TestExecuteIsReentrant), the
#                                optimizer session's oracles (memos and group
#                                states shared, frozen memos untouched), the
#                                one compile path under injection
#                                (TestFaultedTrialsKeepPlans) and the
#                                plan-under-injection rule it rests on
#                                (faults' TestCompileAttemptBuildsPlanUnder-
#                                Injection) — re-run with STEERQ_WORKERS=4 so
#                                the race detector covers the worker pool on
#                                every run
#   7. alloc regression          the compile allocation budget, the warm
#                                session compile's (its Result and nothing
#                                else), the column-statistics sets against
#                                their map reference, the nn
#                                training/inference allocation budgets, the
#                                exec simulator's once-per-node work and
#                                allocation budgets and xrand's
#                                allocation-free reseed-and-draw re-checked
#                                under -race (testing.AllocsPerRun)
#   8. bench smoke               the one-shot compile (a one-compile
#                                session; at -benchtime=20000x it reads 396
#                                allocs/op, here the first compile also
#                                builds the pooled arena), the
#                                serial and 4-worker pipeline benchmarks
#                                (one BuildBundle over a fixed job set each),
#                                the warm re-pass over the same set (fails
#                                unless it reads 0 compiles/op), one job's
#                                span probes + 300 candidates through one
#                                optimizer session (fails unless explores/op
#                                stays within a quarter of compiles/op,
#                                implfirings/compile within three quarters of
#                                the one-shot rate and allocs/compile within
#                                16),
#                                the nn train/forward kernels at the
#                                learn_groups shape, the exec simulator's
#                                Run/Explain over the discover_* plan shapes
#                                and xrand's short-stream (reseed + 3 draws)
#                                and long-stream (seed + 1,000 draws) paths,
#                                executed once
#                                (-benchtime=1x) so a broken or pathologically
#                                slow hot path fails CI, not the next perf run
#   9. coverage floor            go test -cover over the robustness- and
#                                observability-critical packages (faults, par,
#                                steering, obs, learning, nn, analysis, serve,
#                                bundle) with an 80% per-package floor
#  10. fault-injection smoke     one pipeline run with a pinned fault seed and
#                                plan checking on: it must complete with every
#                                faulted job surviving via retry or fallback
#  11. metrics golden smoke      the same pinned-seed pipeline run under the
#                                frozen virtual clock (STEERQ_VCLOCK) with
#                                -metrics-out, diffed byte-for-byte against the
#                                committed snapshot golden — metric drift and
#                                nondeterminism both fail here
#  12. paper tables golden       the one regenerator of the paper's tables,
#                                `steerq-bench -exp all` at -scale 0.002 -m 40
#                                with a pinned fault seed, diffed
#                                byte-for-byte against the committed
#                                cmd/steerq-bench/testdata/exp_all.golden.txt
#                                (its stdout is the same at any -workers and
#                                with or without the fault seed)
#  13. serving smoke             the full serving path end to end: build a
#                                pinned-seed bundle with `steerq bundle`,
#                                check that steerqd refuses to boot from a
#                                missing -bundle (nonzero exit, no address
#                                file), start it on an ephemeral loopback port,
#                                smoke-query known signatures (hits and a
#                                miss) through the `steerq steer` client,
#                                drain the daemon with SIGTERM, and diff its
#                                frozen-clock metrics snapshot against the
#                                committed ci_serving.golden.json
#  14. benchmark module          (cd benchmark && go vet ./... && go test
#                                ./...): the repo benchmark is its own module
#                                importing this one, so a root change that
#                                breaks the API it calls fails here; its tests
#                                pin BENCHMARK.json to `-manifest`, check the
#                                oracles against tampered outputs and smoke
#                                all five workloads offline
#  15. short fuzz pass           60s total over the scopeql parser/binder
#                                (including the parse-print-parse round trip),
#                                the bundle decoder, xrand's generator
#                                against math/rand's and the column-statistics
#                                merge against its map reference
#
# Set STEERQ_CI_SKIP_FUZZ=1 to skip stage 15 (e.g. on very slow machines).
set -eu

echo "== build =="
go build ./...

echo "== gofmt =="
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== vet =="
go vet ./...

echo "== steerq-lint =="
go run ./cmd/steerq-lint ./...

echo "== test (race) =="
STEERQ_CHECK_PLANS=1 go test -race ./...

echo "== parallel pipeline smoke (race, 4 workers) =="
STEERQ_WORKERS=4 STEERQ_CHECK_PLANS=1 go test -race ./internal/cascades/ ./internal/steering/ ./internal/experiments/ \
    -run 'Parallel|Determinism|Fault|Repass|Session|GroupState|Frozen|Reentrant'
STEERQ_WORKERS=4 STEERQ_CHECK_PLANS=1 go test -race ./internal/faults/ -run 'TestCompileAttemptBuildsPlanUnderInjection'

echo "== alloc regression (race) =="
go test -race ./internal/rules/ -run TestCompileAllocationBudget -count=1
go test -race ./internal/cascades/ -run TestSessionWarmCompileAllocations -count=1
go test -race ./internal/cost/ -run TestNDVsMatchMapReference -count=1
go test -race ./internal/nn/ -run 'TestTrainAllocationBudget|TestForwardAllocationFree' -count=1
go test -race ./internal/exec/ -run 'TestRunCostsEachNodeOnce|TestRunAllocationBudget' -count=1
go test -race ./internal/xrand/ -run TestReseedDrawAllocationFree -count=1

echo "== bench smoke (1x, serial + 4 workers) =="
go test -run '^$' -bench 'Benchmark(CompileDefault|PipelineWorkers(1|4)|BundleRepass|SessionCandidates)$' -benchtime=1x -benchmem .
go test -run '^$' -bench 'Benchmark(Train|Forward)$' -benchtime=1x ./internal/nn/
go test -run '^$' -bench 'Benchmark(Run|Explain)$' -benchtime=1x ./internal/exec/
go test -run '^$' -bench 'Benchmark(ReseedDraw3|SeedFill)$' -benchtime=1x ./internal/xrand/

echo "== coverage floor (faults, par, steering, obs, learning, nn, analysis, serve, bundle >= 80%) =="
go test -cover ./internal/faults/ ./internal/par/ ./internal/steering/ \
    ./internal/obs/ ./internal/learning/ ./internal/nn/ ./internal/analysis/ \
    ./internal/serve/ ./internal/bundle/ > /tmp/steerq-cover.$$
cat /tmp/steerq-cover.$$
awk '
    /coverage:/ {
        pct = 0
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { pct = $i; sub(/%/, "", pct) }
        if (pct + 0 < 80) { printf "coverage below 80%% floor: %s\n", $0; bad = 1 }
    }
    END { exit bad }
' /tmp/steerq-cover.$$
rm -f /tmp/steerq-cover.$$

echo "== fault-injection smoke (pinned seed 1337) =="
STEERQ_CHECK_PLANS=1 go run ./cmd/steerq pipeline -workload A -job 0/3 -m 60 -k 5 -workers 4 -fault-seed 1337 > /tmp/steerq-faults.$$
grep -q 'fault injection:' /tmp/steerq-faults.$$ || {
    echo "fault smoke: no injection stats in output" >&2
    rm -f /tmp/steerq-faults.$$
    exit 1
}
rm -f /tmp/steerq-faults.$$

echo "== metrics golden smoke (frozen clock, pinned seed 1337) =="
STEERQ_VCLOCK=1 STEERQ_CHECK_PLANS=1 go run ./cmd/steerq pipeline \
    -workload A -job 0/3 -m 60 -k 5 -workers 4 -fault-seed 1337 \
    -metrics-out /tmp/steerq-metrics.$$.json > /dev/null
diff -u cmd/steerq/testdata/ci_metrics.golden.json /tmp/steerq-metrics.$$.json || {
    echo "metrics smoke: snapshot drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the command above)" >&2
    rm -f /tmp/steerq-metrics.$$.json
    exit 1
}
rm -f /tmp/steerq-metrics.$$.json

echo "== paper tables golden (steerq-bench -exp all, pinned seed 1337) =="
go run ./cmd/steerq-bench -scale 0.002 -m 40 -exp all -fault-seed 1337 -workers 4 \
    > /tmp/steerq-exp.$$.txt 2> /dev/null
diff -u cmd/steerq-bench/testdata/exp_all.golden.txt /tmp/steerq-exp.$$.txt || {
    echo "paper tables: steerq-bench -exp all stdout drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the command above)" >&2
    rm -f /tmp/steerq-exp.$$.txt
    exit 1
}
rm -f /tmp/steerq-exp.$$.txt

echo "== serving smoke (steerqd end to end, frozen clock) =="
servdir=$(mktemp -d)
STEERQ_VCLOCK=1 go run ./cmd/steerq bundle -workload B -scale 0.002 -seed 5 -day 0 \
    -max-jobs 10 -m 40 -k 3 -bundle-version 3 -created-unix 1700000000 \
    -out "$servdir/active.stqb" > /dev/null
go build -o "$servdir/steerqd" ./cmd/steerqd
# A -bundle that cannot be loaded is fatal: nonzero exit, no address file.
if "$servdir/steerqd" -addr 127.0.0.1:0 -bundle "$servdir/missing.stqb" \
    -addr-file "$servdir/addr.txt" 2> "$servdir/steerqd.log"; then
    echo "serving smoke: daemon booted with a missing -bundle" >&2
    rm -rf "$servdir"
    exit 1
fi
[ ! -e "$servdir/addr.txt" ] || {
    echo "serving smoke: daemon wrote its address file despite a missing -bundle" >&2
    rm -rf "$servdir"
    exit 1
}
STEERQ_VCLOCK=1 "$servdir/steerqd" -addr 127.0.0.1:0 -bundle "$servdir/active.stqb" \
    -addr-file "$servdir/addr.txt" -metrics-out "$servdir/serving.json" \
    2> "$servdir/steerqd.log" &
servpid=$!
i=0
while [ ! -s "$servdir/addr.txt" ] && [ $i -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
[ -s "$servdir/addr.txt" ] || {
    echo "serving smoke: daemon never wrote its address file" >&2
    cat "$servdir/steerqd.log" >&2
    kill "$servpid" 2> /dev/null || true
    rm -rf "$servdir"
    exit 1
}
servaddr=$(cat "$servdir/addr.txt")
# Smoke-query the bundle's first three signatures (known groups) plus the
# all-zero signature (a guaranteed miss served from the default config).
servsigs=$(go run ./cmd/steerq bundle -inspect "$servdir/active.stqb" \
    | awk '/^entry/ { print $4 }' | cut -d= -f2 | head -3)
first=1
for sig in $servsigs $(printf '%064d' 0); do
    if [ "$first" = 1 ]; then
        go run ./cmd/steerq steer -addr "$servaddr" -wait-ready 10s -sig "$sig" > /dev/null
        first=0
    else
        go run ./cmd/steerq steer -addr "$servaddr" -sig "$sig" > /dev/null
    fi
done
kill -TERM "$servpid"
wait "$servpid" || {
    echo "serving smoke: daemon exited nonzero after SIGTERM" >&2
    cat "$servdir/steerqd.log" >&2
    rm -rf "$servdir"
    exit 1
}
diff -u cmd/steerqd/testdata/ci_serving.golden.json "$servdir/serving.json" || {
    echo "serving smoke: metrics snapshot drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the commands above)" >&2
    rm -rf "$servdir"
    exit 1
}
rm -rf "$servdir"

echo "== benchmark module (vet + tests) =="
(cd benchmark && go vet ./... && go test ./...)

if [ "${STEERQ_CI_SKIP_FUZZ:-0}" != "1" ]; then
    echo "== fuzz (short) =="
    go test -fuzz=FuzzParse -fuzztime=15s ./internal/scopeql/
    go test -fuzz=FuzzCompile -fuzztime=15s ./internal/scopeql/
    go test -fuzz=FuzzBundleDecode -fuzztime=15s ./internal/bundle/
    go test -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s ./internal/xrand/
    go test -fuzz=FuzzNDVsMerge -fuzztime=5s ./internal/cost/
fi

echo "CI OK"
