# Mirrors .github/workflows/ci.yml: `make ci` is what CI runs.

GO ?= go

.PHONY: build test race bench bench-json profile lint perfbench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrent experiment engine (worker pool,
# singleflight memoization, batched Setup-hook runs) under the detector.
race:
	$(GO) test -race -timeout 30m ./...

# One iteration per paper figure; doubles as a regression smoke test.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Benchmark trajectory: the hot-path benchmarks future PRs must not
# regress — the end-to-end rates (scenario mix, fleet run exact and
# fast, warm-memo fleet replays including the 10k-machine placement
# path) plus the hot-path microbenchmarks (one cache access, batched
# trace generation, analytic model build) — emitted as committed/
# diffable JSON (BENCH_fleet.json is the checked-in baseline; CI
# uploads the current run as an artifact and gates on `benchjson
# compare`). Two steps (not a pipe) so a failing benchmark fails the
# target instead of being masked by a partially-parsed stream.
# The end-to-end rates run one full iteration (a whole scenario/fleet
# simulation each; the FleetRun pattern also matches FleetRunFast); the
# microbenchmarks are per-operation and need a time budget to produce
# stable ns/op.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkScenarioMix|BenchmarkFleetRun' -benchtime=1x . > /tmp/bench-fleet.out
	$(GO) test -run '^$$' -bench 'BenchmarkFleetMultiPolicy|BenchmarkFleetChurn|BenchmarkFleetMega10k|BenchmarkCacheAccess|BenchmarkTraceGen|BenchmarkModelBuild' -benchtime=1s . >> /tmp/bench-fleet.out
	$(GO) run ./cmd/benchjson < /tmp/bench-fleet.out > BENCH_fleet.json
	@rm -f /tmp/bench-fleet.out
	@cat BENCH_fleet.json

# Profiling workflow (see DESIGN.md "Performance"): cpuprofile the
# scenario-mix hot path and print the top functions. The profile stays
# in /tmp for interactive digs: `go tool pprof /tmp/cachepart-cpu.prof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkScenarioMix -benchtime=5x \
		-cpuprofile /tmp/cachepart-cpu.prof -o /tmp/cachepart-bench.test .
	$(GO) tool pprof -top -nodecount=20 /tmp/cachepart-cpu.prof

# perfbench is its own module (replace repro => ../), so the root
# `go build ./...` never compiles it; build and self-test it against
# the current tree.
perfbench:
	cd perfbench && $(GO) test .

lint:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi

ci: build lint race bench perfbench
