GO ?= go
FUZZTIME ?= 30s
LINT_REPORT ?= r2c2-lint.json
OWNERSHIP_REPORT ?= shard_ownership.json
BENCH_REPORT ?= BENCH_sim.json
# The hot-path micro-benchmark suite recorded in $(BENCH_REPORT); the
# figure-harness benchmarks are excluded because they measure whole
# experiments, not code paths.
MICROBENCH = ^(BenchmarkSimulatorEventThroughput|BenchmarkShardedEventThroughput|BenchmarkControlPlaneTick|BenchmarkTimerWheel|BenchmarkTimerWheelSameInstant|BenchmarkViewApplyCold|BenchmarkBroadcastFIBBuild|BenchmarkWaterfillAllocate|BenchmarkIncrementalChurn|BenchmarkEmuDataPath|BenchmarkEmuMbufPool|BenchmarkPhiRPS512|BenchmarkBroadcastEncodeDecode)$$

FAULTS_REPORT ?= faultsweep.csv
EMU_BENCH_REPORT ?= BENCH_emu.json
ALLOC_BUDGET ?= alloc_budget.json
ALLOC_DRIFT ?= alloc_drift.json

.PHONY: build test race race-short debug lint fuzz fuzz-directives fuzz-view vet bench-smoke bench-json bench bench-selftest faults-smoke alloccheck alloccheck-update verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI race job: the full suite under the race detector with the
# packet-level sweeps and GA searches at reduced scale. Nothing in
# internal/sim but the selector sweep shortens under -short, so the port
# state machine, tie-break, record-size and reference-heap tests all run.
race-short:
	$(GO) test -race -short ./...

# Runtime invariant assertions in internal/sim (clock monotonicity, no
# stale event pops, pacing within injection bandwidth) compile in only
# under the debug tag.
debug:
	$(GO) test -tags debug ./internal/sim/

vet:
	$(GO) vet ./...

# The repo's own static-analysis rules; see DESIGN.md "Determinism &
# concurrency invariants" (§13 for the ownership model) and
# `go run ./cmd/r2c2-lint -list`. Two reports are always written and CI
# uploads both: $(LINT_REPORT) is {analyzer_version, rules, findings};
# $(OWNERSHIP_REPORT) records the declared //r2c2:shardowned types and
# //r2c2:boundary functions. Any surviving finding fails the build.
lint:
	@$(GO) run ./cmd/r2c2-lint -json -ownership $(OWNERSHIP_REPORT) ./... > $(LINT_REPORT) \
		|| { cat $(LINT_REPORT); echo "lint: findings (report: $(LINT_REPORT))"; exit 1; }
	@echo "lint: clean (reports: $(LINT_REPORT), $(OWNERSHIP_REPORT))"

fuzz:
	$(GO) test -run=^$$ -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME) ./internal/wire/

# Lint directive parser robustness: malformed //lint: / //r2c2: comments
# must produce a deterministic error, never a silently skipped rule.
fuzz-directives:
	$(GO) test -run=^$$ -fuzz FuzzParseDirective -fuzztime $(FUZZTIME) ./internal/analysis/

# core.View's open-addressing table against the map it replaced, on
# arbitrary event streams (collisions, wrap-around deletes, growth). An input
# is thousands of four-byte events, so minimising each coverage-increasing
# one byte by byte (the default: up to a minute apiece) would be the whole run.
fuzz-view:
	$(GO) test -run=^$$ -fuzz FuzzViewApply -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core/

# One iteration of every benchmark: catches bitrot in the benchmark
# harnesses (they cover each figure of the paper) without paying for a
# real measurement run.
bench-smoke:
	$(GO) test -run=^$$ -bench . -benchtime=1x ./...

# Real measurement of the micro-benchmark suite, recorded as JSON
# (benchmark name -> ns/op, allocs/op, events/run, ...) so the perf
# trajectory is tracked per commit; CI uploads $(BENCH_REPORT) and
# $(EMU_BENCH_REPORT) as artifacts. The emulator benchmarks are split into
# their own report because they measure wall-clock goroutine scheduling and
# move with machine load, while the simulator numbers are deterministic.
bench-json:
	@$(GO) test -run='^$$' -bench '$(MICROBENCH)' -benchmem . > $(BENCH_REPORT).txt \
		|| { cat $(BENCH_REPORT).txt; rm -f $(BENCH_REPORT).txt; exit 1; }
	@$(GO) run ./cmd/r2c2-benchjson -emu $(EMU_BENCH_REPORT) < $(BENCH_REPORT).txt > $(BENCH_REPORT)
	@rm -f $(BENCH_REPORT).txt
	@echo "bench-json: wrote $(BENCH_REPORT) and $(EMU_BENCH_REPORT)"

# The repository benchmark (BENCHMARK.json, bench/README.md): every workload's
# end-to-end metrics, untraced. Builds into .bench_build/, writes bench/out/.
bench:
	bash bench/run.sh --workload all --trace 0

# The benchmark's own tests (bench/ is a module of its own): BENCHMARK.json
# and the workload tables agree, digests repeat, the ladder runs.
bench-selftest:
	$(GO) test -C bench ./...

# Compiler escape-analysis gate for the zero-alloc roadmap (DESIGN.md §11):
# rebuilds the hot packages with -gcflags=-m and fails on any per-function
# escape count above the checked-in $(ALLOC_BUDGET). The drift report is
# always written; CI uploads it as an artifact. Regenerate the baseline
# with `make alloccheck-update` after deliberate changes.
alloccheck:
	$(GO) run ./cmd/r2c2-allocheck -baseline $(ALLOC_BUDGET) -drift $(ALLOC_DRIFT)

alloccheck-update:
	$(GO) run ./cmd/r2c2-allocheck -baseline $(ALLOC_BUDGET) -update

# Sim-vs-emu fault-injection cross-validation on a seeded schedule (link
# flaps + a node crash, DESIGN.md §10). The CSV comparing completed-flow
# counts and FCT percentiles goes to $(FAULTS_REPORT); CI uploads it as an
# artifact.
faults-smoke:
	@$(GO) run ./cmd/r2c2-emu -faults gen:7 -flows 20 -bytes 262144 -interval 3ms -csv > $(FAULTS_REPORT) \
		|| { cat $(FAULTS_REPORT); rm -f $(FAULTS_REPORT); exit 1; }
	@cat $(FAULTS_REPORT)
	@echo "faults-smoke: wrote $(FAULTS_REPORT)"

verify: build vet lint test race debug alloccheck bench-smoke faults-smoke
	@echo verify: OK
