# steerq development targets. `make ci` is the authoritative gate; the
# other targets are the individual stages for quick local iteration.

.PHONY: all build test race lint vet fmt fuzz bench ci

all: build

build:
	go build ./...

test:
	go test ./...

race:
	STEERQ_CHECK_PLANS=1 go test -race ./...

# lint runs the driver: all eight analyzers, any finding fails. CI runs the
# same lint as internal/analysis's TestRepoIsClean, inside `test` and `race`.
lint:
	go run ./cmd/steerq-lint ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

# fuzz is ci.sh's "fuzz (short)" stage: the same seven targets and budgets.
fuzz:
	go test -fuzz=FuzzLex -fuzztime=5s ./internal/scopeql/
	go test -fuzz=FuzzParse -fuzztime=15s ./internal/scopeql/
	go test -fuzz=FuzzCompile -fuzztime=15s ./internal/scopeql/
	go test -fuzz=FuzzBundleDecode -fuzztime=15s ./internal/bundle/
	go test -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s ./internal/xrand/
	go test -fuzz=FuzzNDVsMerge -fuzztime=5s ./internal/cost/
	go test -fuzz=FuzzKernelsMatchPortable -fuzztime=10s ./internal/nn/

# bench runs the root pipeline benchmarks, then every workload of the repo
# benchmark the way the driver calls it (README "Benchmark"). The workload
# names are the first table `-list` prints; each run prints its metrics.
bench:
	go test -run '^$$' -bench 'BenchmarkPipeline' -benchmem .
	for w in $$(bash benchmark/run.sh -list | awk -F'`' '/^$$/ { exit } NR > 2 { print $$2 }'); do \
		bash benchmark/run.sh --workload $$w --seed 7 --seconds 10 --trace 0 || exit 1; \
	done

ci:
	./ci.sh
