GO ?= go

# Pinned staticcheck release (honnef.co/go/tools). `make lint` prefers a
# staticcheck binary on PATH, falls back to `go run` of the pinned
# version, and degrades to vet-only when neither is available (offline).
STATICCHECK_VERSION ?= 2025.1.1
STATICCHECK_PKG = honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

.PHONY: all build test race vet lint fuzz bench figures profile cycleprofile serve loadsmoke clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/memo/
	$(GO) test -race -count=10 -run TestConcurrentExplainsVerifyOnce ./internal/server/
	$(GO) test -race -count=10 -run 'TestCompilesNeverWriteTheSharedLoweredFunction|TestConcurrentMeasureModesDoNotLeak' ./internal/pipeline/
	$(GO) test -race -count=10 -run TestPooledRunStatesMatchIsolatedRuns ./internal/sim/

vet:
	$(GO) vet ./...

lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
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
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/bench/ ./internal/pipeline/ ./internal/obs/ ./internal/server/

# Regenerate all paper figures and the per-kernel cycle totals into the
# golden that TestHarnessDeterminism pins; review the diff before
# committing it. Timing is perfbench's job (bash perfbench/run.sh).
figures:
	$(GO) run ./cmd/slmsbench > internal/bench/testdata/figures.golden

# Figures with CPU + heap profiles for perf work.
profile:
	$(GO) run ./cmd/slmsbench -cpuprofile cpu.pprof -memprofile mem.pprof

# Simulated-cycle attribution for the whole suite: where every cycle of
# every kernel went (issue, hazard, miss, fill, prologue/epilogue,
# branch). Explore with `go tool pprof -http=: cycles.pb.gz`.
cycleprofile:
	$(GO) run ./cmd/slmsbench -q -profile cycles.pb.gz

# Run the compilation service on the default address (127.0.0.1:8347).
serve:
	$(GO) run ./cmd/slmsd

# The CI load-smoke battery: cached-path speedup and p99 latency budget
# on a live server, plus drain-under-load losing zero admitted requests.
loadsmoke:
	SLMS_LOAD_SMOKE=1 $(GO) test -run TestLoadSmoke -v ./internal/server/

clean:
	rm -f cpu.pprof mem.pprof cycles.pb.gz suite-cycles.pb.gz
