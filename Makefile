# Verification targets. `make check` is the one-command gate: tier-1
# (build + test) plus vet, the determinism linter, the race layer and a
# bench smoke pass.

GO ?= go
# Benchmark iteration budget for bench-json: 1x for a CI smoke record,
# something like 3x or a duration (2s) for a real perf-trajectory entry.
BENCHTIME ?= 1x
BENCH_JSON = BENCH_$(shell date +%Y-%m-%d).json
# The latest committed perf-trajectory entry (BENCH_*.json sort by date) is
# the baseline bench-check gates against.
BENCH_BASELINE = $(lastword $(sort $(wildcard BENCH_*.json)))
# Allowed ns/op regression for bench-check, in percent. Wide by default:
# ns/op on shared CI runners is noisy and the real contract is the
# allocation gate (alloc-tol 0 — any allocs/op growth on the pooled replay
# path fails). Tighten locally: `make bench-check NS_TOL=15`.
NS_TOL ?= 300
# The benchmarks bench-check gates: the pooled replay path end to end.
BENCH_GATE = BenchmarkFig10 BenchmarkTraceReplay BenchmarkResilienceReport \
	BenchmarkReplayReuse/fresh BenchmarkReplayReuse/pooled BenchmarkEngineRaw

.PHONY: all build test race vet lint resilience chaos fuzz bench-smoke bench-json bench-check bench-check.json golden loc check

all: check

# perfbench is a nested module (its own go.mod, replacing hybridmr with the
# checkout), so `go build ./...` never compiles it; vetting it here keeps an
# API change from breaking the benchmark harness unnoticed. The vet reads a
# temporary copy of its go.mod (-modfile), because -mod=mod rewrites the
# go directive to the root module's version and the benchmark's own files
# must stay as committed.
build:
	$(GO) build ./...
	tmp=$$(mktemp -d) && cp perfbench/go.mod $$tmp/go.mod && \
		(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet -modfile=$$tmp/go.mod ./...); \
		status=$$?; rm -rf "$$tmp"; exit $$status

test:
	$(GO) test ./...

# The sweep runner introduced real concurrency; the race layer is part of
# full verification.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The determinism linter (see DESIGN.md §8 and §12 and internal/simlint):
# vet (its copylocks check reports locks copied by value), module
# verification (the module is deliberately dependency-free), the simlint
# analyzers over the whole tree — the determinism checks no runtime gate
# reliably makes — and a focused race pass over the concurrency-bearing
# packages (the engine runs real map and reduce worker goroutines, each
# owning its grouper). CI runs simlint with -json/-github on top for inline
# PR annotations.
lint:
	$(GO) vet ./...
	$(GO) mod verify
	$(GO) run ./cmd/simlint ./...
	$(GO) test -race ./internal/sweep/... ./internal/simclock/... ./internal/engine/...

# The resilience layer under the race detector: the gray-failure and
# crash-replay goldens (byte-identical serial vs parallel), the watchdog
# partial-results contract, the gray/blacklist/speculation suites in core
# and mapreduce, and the degraded-platform view layer (the pinned view
# table, view-of-view composition, the simulator-vs-closed-form oracle on
# views, the cross points measured on gray views, and both file systems'
# loss and throttle views).
resilience:
	$(GO) test -race -count=1 -run 'TestGolden|TestResilience|TestRunResilience|TestGray|TestBlacklist|TestWatchdog|TestClone|TestSpecul|TestView|TestSimulatorMatchesClosedForm|TestMeasureCrossPointsGray|TestDegrade|TestThrottle' ./internal/figures/ ./internal/core/ ./internal/mapreduce/ ./internal/storage/...

# One iteration of every benchmark, including the sweep serial/parallel/
# memoized comparison and the ablation benches (their embedded assertions
# run even at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Record a perf-trajectory entry: run every benchmark with allocation
# counters and convert the output to BENCH_<date>.json (ns/op, allocs/op and
# custom metrics like events/sec). CI's bench-smoke job runs this at
# BENCHTIME=1x and uploads the artifact; for a real measurement use e.g.
# `make bench-json BENCHTIME=3x`.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... > bench.out
	$(GO) run ./cmd/benchjson < bench.out > $(BENCH_JSON)
	@rm -f bench.out
	@echo wrote $(BENCH_JSON)

# Gate the gated benchmarks against the latest committed BENCH_*.json:
# rerun them, convert to JSON, and diff with zero allocation tolerance (see
# cmd/benchjson -diff). Fails the build when allocs/op grows at all or ns/op
# regresses beyond NS_TOL percent.
bench-check: bench-check.json
	@test -n "$(BENCH_BASELINE)" || { \
		echo "bench-check: no BENCH_*.json baseline found in the repo root."; \
		echo ""; \
		echo "bench-check diffs a fresh benchmark run against the newest committed"; \
		echo "perf-trajectory entry; without one there is nothing to gate against."; \
		echo "Record a baseline on a quiet machine and commit it:"; \
		echo ""; \
		echo "    make bench-check.json && mv bench-check.json BENCH_$$(date +%Y-%m-%d).json"; \
		echo "    git add BENCH_*.json"; \
		echo ""; \
		exit 1; }
	$(GO) run ./cmd/benchjson -diff -ns-tol $(NS_TOL) -alloc-tol 0 $(BENCH_BASELINE) bench-check.json $(BENCH_GATE)
	@rm -f bench-check.json

# The gated benchmarks' fresh numbers, the file bench-check diffs; record a
# baseline by renaming it to BENCH_<date>.json. The gated benchmarks run at
# a fixed iteration count, not at BENCHTIME: the replay benchmarks at 10x,
# so allocs/op averages ten steady-state replays after the benchmarks' own
# pool warm-up, and EngineRaw, a ~20ns op, at 200000x — timing 3 iterations
# would be pure clock noise. They run with the collector off (GOGC=off),
# because with it on allocs/op followed GC timing (Fig10 read 149–153). Each
# runs in its own process, three times, and benchjson keeps the least of the
# three: the runtime still adds an allocation now and then (a goroutine
# descriptor or wait-queue entry when a free list runs dry), and one process
# running them in turn read TraceReplay one allocation high in 3 of 30 runs
# (DESIGN.md §12). The test binary is built first, so the compiler itself
# runs with the collector on.
bench-check.json:
	$(GO) test -c -o bench-check.test .
	@rm -f bench-check.out
	for run in 1 2 3; do \
		for b in BenchmarkFig10 BenchmarkTraceReplay BenchmarkResilienceReport BenchmarkReplayReuse; do \
			GOGC=off ./bench-check.test -test.run '^$$' -test.bench "^$$b\$$" -test.benchmem -test.benchtime 10x >> bench-check.out || exit 1; \
		done; \
		GOGC=off ./bench-check.test -test.run '^$$' -test.bench '^BenchmarkEngineRaw$$' -test.benchmem -test.benchtime 200000x >> bench-check.out || exit 1; \
	done
	$(GO) run ./cmd/benchjson < bench-check.out > bench-check.json
	@rm -f bench-check.out bench-check.test

# Seeded chaos-search smoke: a 64-round campaign of randomized fault
# schedules replayed with the invariant layer attached, plus the self-test
# that the campaign catches (and minimizes) the deliberately seeded
# silent-map-loss defect. Deterministic per seed — see DESIGN.md §13.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	$(GO) run ./cmd/chaoshunt -seed 1 -rounds 64 -budget events=5e7,simtime=720h

# Coverage-guided fuzzing for 10 s per target: every untrusted-input
# parser (fault schedules, engine output, byte sizes, watchdog budgets and
# both trace readers) and the engine's map path (Wordcount over arbitrary
# text, sort buffers and slot counts against a single-threaded oracle).
# Each target first replays its committed corpus under
# testdata/fuzz; a new crasher is written there, so plain `go test` replays
# it from then on. Open-ended by nature, so it stays out of `make check`;
# CI runs it as its own job.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSchedule$$' -fuzztime 10s ./internal/faults/
	$(GO) test -run '^$$' -fuzz '^FuzzParseOutput$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzWordcountSpill$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBytes$$' -fuzztime 10s ./internal/units/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBudget$$' -fuzztime 10s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/workload/

# Refresh the golden figure snapshots after an intentional model change.
golden:
	$(GO) test ./internal/figures -run TestGolden -update

# Non-test Go lines outside the benchmark module and test fixtures: the
# size figure ROADMAP and CHANGES quote.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path '*/testdata/*' | xargs cat | wc -l

check: build vet lint test race resilience chaos bench-smoke
