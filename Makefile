GO ?= go
FUZZTIME ?= 30s
# The hot-path micro-benchmark suite `make microbench` measures; the
# figure-harness benchmarks are excluded because they measure whole
# experiments, not code paths.
MICROBENCH = ^(BenchmarkSimulatorEventThroughput|BenchmarkBulkDataPath|BenchmarkPFQDataPath|BenchmarkShardedEventThroughput|BenchmarkControlPlaneTick|BenchmarkTimerWheel|BenchmarkTimerWheelSameInstant|BenchmarkTimerWheelCrowdedSlot|BenchmarkTimerWheelHops|BenchmarkViewApplyCold|BenchmarkBroadcastFIBBuild|BenchmarkWaterfillAllocate|BenchmarkEmuDataPath|BenchmarkEmuMbufPool|BenchmarkPhiRPS512|BenchmarkBroadcastEncodeDecode)$$

FAULTS_REPORT ?= faultsweep.csv

.PHONY: build test race race-short debug fuzz fuzz-view fuzz-vis fuzz-emu-vis fuzz-reorder fuzz-wheel fuzz-fill fuzz-args fuzz-faults vet bench-smoke microbench bench bench-selftest faults-smoke loc verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI race job: the full suite under the race detector with the
# packet-level sweeps and GA searches at reduced scale. Nothing in
# internal/sim shortens under -short, so the port state machine, tie-break,
# record-size and reference-heap tests all run at full size.
race-short:
	$(GO) test -race -short ./...

# Runtime invariant assertions in internal/sim (clock monotonicity, no
# stale event pops, pacing within injection bandwidth) compile in only
# under the debug tag.
debug:
	$(GO) test -tags debug ./internal/sim/

vet:
	$(GO) vet ./...

fuzz:
	$(GO) test -run=^$$ -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME) ./internal/wire/

# core.View's open-addressing table against the map it replaced, on
# arbitrary event streams (collisions, wrap-around deletes, growth). An input
# is thousands of four-byte events, so minimising each coverage-increasing
# one byte by byte (the default: up to a minute apiece) would be the whole run.
fuzz-view:
	$(GO) test -run=^$$ -fuzz FuzzViewApply -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core/

# core.Visibility, one to four columns, against one core.View per column, on
# arbitrary event streams (floods, finish-first flows, recycled rows, origin
# adds and finishes, purges, wrapped-around sequence numbers). Inputs are
# thousands of four-byte events: minimise by count, as fuzz-view does.
fuzz-vis:
	$(GO) test -run=^$$ -fuzz FuzzVisibilityMatchesView -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/core/

# The emulator's receive path (decode, late-start rule, per-node Visibility)
# and its dead-endpoint purge against one core.View per node, on an idle rack.
# Inputs are hundreds of four-byte events: minimise by count.
fuzz-emu-vis:
	$(GO) test -run=^$$ -fuzz FuzzEmuReceiveMatchesView -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/emu/

# The reorder-window bitmap against the map it replaced, on arbitrary packet
# streams (duplicates, late packets, gaps across ring doublings). An input is
# thousands of two-byte packets: minimise by count, as fuzz-view does.
fuzz-reorder:
	$(GO) test -run=^$$ -fuzz FuzzReorderWindow -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/sim/

# The timer wheel against a reference binary heap on arbitrary arm/cancel/pop
# streams whose keys crowd a few slots (every merge width of the run's sort,
# cancels of staged entries, arms into the slot being drained). Inputs are
# thousands of two-byte operations: minimise by count, as fuzz-view does.
fuzz-wheel:
	$(GO) test -run=^$$ -fuzz FuzzWheelOrder -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/sim/

# The production water-fill (cached link levels, link→flow index) against
# the two-pass fill it replaced, bit for bit, on arbitrary flow sets over a
# torus or over sparse φ-vectors, one Allocator reused across inputs.
fuzz-fill:
	$(GO) test -run=^$$ -fuzz FuzzAllocateMatchesTwoPass -fuzztime $(FUZZTIME) ./internal/waterfill/

# The r2c2 command's argument parsing and validation on arbitrary command
# lines: an error is one line and nothing runs, whatever the sizes say.
fuzz-args:
	$(GO) test -run=^$$ -fuzz FuzzArgs -fuzztime $(FUZZTIME) ./cmd/r2c2/

# The fault-schedule parser on arbitrary text, DSL and JSON: it returns an
# error or a schedule, every accepted schedule survives its own DSL
# rendering, and Validate, Waves and Horizon do not panic on it.
fuzz-faults:
	$(GO) test -run=^$$ -fuzz FuzzFaultsParse -fuzztime $(FUZZTIME) ./internal/faults/

# One iteration of every benchmark: catches bitrot in the benchmark
# harnesses (they cover each figure of the paper) without paying for a
# real measurement run.
bench-smoke:
	$(GO) test -run=^$$ -bench . -benchtime=1x ./...

# Real measurement of the micro-benchmark suite, as the benchstat-readable
# text `go test -bench` prints. For looking while you work: the ledger that
# is recorded and compared is the repository benchmark below.
microbench:
	$(GO) test -run='^$$' -bench '$(MICROBENCH)' -benchmem .

# The repository benchmark (BENCHMARK.json, bench/README.md): every workload's
# end-to-end metrics, untraced. Builds into .bench_build/, writes bench/out/.
bench:
	bash bench/run.sh --workload all --trace 0

# The benchmark's own tests (bench/ is a module of its own): BENCHMARK.json
# and the workload tables agree, digests repeat, the ladder runs.
bench-selftest:
	$(GO) test -C bench ./...

# Sim-vs-emu fault-injection cross-validation on a seeded schedule (link
# flaps + a node crash, DESIGN.md §10). The CSV comparing completed-flow
# counts and FCT percentiles goes to $(FAULTS_REPORT); CI uploads it as an
# artifact.
faults-smoke:
	@$(GO) run ./cmd/r2c2 emu -faults gen:7 -flows 20 -bytes 262144 -tau 3ms -csv > $(FAULTS_REPORT) \
		|| { cat $(FAULTS_REPORT); rm -f $(FAULTS_REPORT); exit 1; }
	@cat $(FAULTS_REPORT)
	@echo "faults-smoke: wrote $(FAULTS_REPORT)"

# Non-test and test lines of Go per top-level package and in total (the root
# package included), bench/ — a module of its own — excluded: what
# ROADMAP.md's size paragraph is computed with.
loc:
	@count() { find "$$@" -name '*.go' | xargs cat | wc -l; }; \
	for d in internal/* cmd examples; do \
		printf '%7d %7d  %s\n' "$$(count $$d ! -name '*_test.go')" "$$(count $$d -name '*_test.go')" $$d; \
	done; \
	printf '%7d %7d  total\n' \
		"$$(count . ! -path './bench/*' ! -path './.*' ! -name '*_test.go')" \
		"$$(count . ! -path './bench/*' ! -path './.*' -name '*_test.go')"

verify: build vet test race debug bench-smoke faults-smoke
	@echo verify: OK
