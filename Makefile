GO ?= go

# Pinned staticcheck release (honnef.co/go/tools). `make lint` prefers a
# staticcheck binary on PATH, falls back to `go run` of the pinned
# version, and degrades to vet-only when neither is available (offline).
STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK_PKG = honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

.PHONY: all build test race vet lint fuzz bench bench-parallel figures profile cycleprofile gate baseline trajectory serve loadsmoke clean

# The committed gate baseline (a two-leg slms-bench-legs/v1 record).
SLMS_GATE_BASELINE ?= BENCH_7.json

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run $(STATICCHECK_PKG) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK_PKG) ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) unavailable (no binary on PATH, module fetch failed); vet-only"; \
	fi

# Short fuzzing pass over every fuzz target (CI runs the same; leave
# -fuzztime off for a long local session).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParser -fuzztime=10s ./internal/source/
	$(GO) test -run=NONE -fuzz=FuzzFilter -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzRequestDecode -fuzztime=10s ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzParseTraceparent -fuzztime=10s ./internal/obs/
	$(GO) test -run=NONE -fuzz=FuzzFlightDumpDecode -fuzztime=10s ./internal/obs/flight/
	$(GO) test -run=NONE -fuzz=FuzzExactScheduler -fuzztime=10s ./internal/sched/exact/
	$(GO) test -run=NONE -fuzz=FuzzProve -fuzztime=10s ./internal/sched/exact/

# Single-pass smoke of every Benchmark* (no statistics); use
# `go test -bench . -benchtime 10x ./internal/bench/` for real numbers.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/bench/ ./internal/pipeline/ ./internal/server/

# The two-leg trajectory: full suite serial then parallel, cold caches
# each, byte-identical figures enforced; writes BENCH_legs.json.
bench-parallel:
	$(GO) run ./cmd/slmsbench -legs -json BENCH_legs.json

# Regenerate all paper figures and the BENCH_1.json harness stats.
figures:
	$(GO) run ./cmd/slmsbench

# Figures with CPU + heap profiles for perf work.
profile:
	$(GO) run ./cmd/slmsbench -cpuprofile cpu.pprof -memprofile mem.pprof -json ""

# Simulated-cycle attribution for the whole suite: where every cycle of
# every kernel went (issue, hazard, miss, fill, prologue/epilogue,
# branch). Explore with `go tool pprof -http=: cycles.pb.gz`.
cycleprofile:
	$(GO) run ./cmd/slmsbench -q -profile cycles.pb.gz -json ""

# The CI regression gates against $(SLMS_GATE_BASELINE): per-kernel
# simulated cycles (deterministic, >5% growth fails) and parallel
# throughput/scaling (cycles/second of the parallel leg; the scaling
# floor is skipped on single-proc hosts).
gate:
	SLMS_REGRESSION_GATE=1 SLMS_GATE_BASELINE=$(abspath $(SLMS_GATE_BASELINE)) \
		$(GO) test -run TestRegressionGateAgainstBaseline -v ./internal/bench/compare/
	SLMS_THROUGHPUT_GATE=1 SLMS_GATE_BASELINE=$(abspath $(SLMS_GATE_BASELINE)) \
		$(GO) test -run TestThroughputGateAgainstBaseline -v ./internal/bench/compare/
	$(GO) test -run TestPrecisionGate -v ./internal/bench/

# Re-record the regression-gate baseline after an intentional
# scheduling or simulator change (cycles are deterministic, so this is
# reproducible on any machine; the throughput leg is host-specific but
# gated with wide thresholds).
baseline:
	$(GO) run ./cmd/slmsbench -q -legs -json $(SLMS_GATE_BASELINE) > /dev/null

# Fold every committed BENCH_*.json snapshot into one time-series
# report (markdown to stdout, TRAJECTORY.json on disk); exits 1 when
# any adjacent pair regressed. CI uploads both as artifacts.
trajectory:
	$(GO) run ./cmd/slmsbench -trajectory -json TRAJECTORY.json

# Run the compilation service on the default address (127.0.0.1:8347).
serve:
	$(GO) run ./cmd/slmsd

# The CI load-smoke battery: cached-path speedup and p99 latency budget
# on a live server, plus drain-under-load losing zero admitted requests.
loadsmoke:
	SLMS_LOAD_SMOKE=1 $(GO) test -run TestLoadSmoke -v ./internal/server/

clean:
	rm -f cpu.pprof mem.pprof cycles.pb.gz suite-cycles.pb.gz
