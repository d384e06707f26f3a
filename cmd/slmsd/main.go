// Command slmsd serves the SLMS pipeline over HTTP: POST mini-C source
// to /v1/compile (source-level modulo scheduling), /v1/schedule
// (compile + simulate, base vs SLMS), /v1/explain (per-loop decisions
// and translation-validation diagnostics) or /v1/profile (cycle
// attribution). /healthz and /readyz serve liveness and readiness.
//
// The service runs a bounded worker pool with a bounded admission queue
// (429 + Retry-After past capacity), enforces a per-request deadline
// threaded through the pipeline and simulator, deduplicates identical
// in-flight requests, caches rendered responses in an LRU, and drains
// gracefully on SIGTERM/SIGINT: in-flight requests complete, new ones
// get 503 while /readyz reports draining.
//
// Observability: every request carries a request ID (minted, or adopted
// from an incoming W3C traceparent header) that stamps the response's
// X-Request-ID header, the access log, and the request's span tree,
// whose loop spans hold its decision records. /metrics serves the
// registry in Prometheus text format; /v1/status serves rolling SLO
// windows. The access log (one line per request) goes to -access-log:
// stderr by default, a file path, stdout, or off.
//
// Postmortem: a flight recorder (internal/obs/flight) keeps recent
// requests per endpoint in fixed memory and dumps a self-contained
// flightdump/v1 snapshot on 5xx, deadline expiry, panic, SLO budget
// breach, SIGQUIT or drain — rate-limited to one per -flight-cooldown.
// Dumps land in -flight-dir and are served at /debug/flight; SIGQUIT
// forces a dump and then drains like SIGTERM. slmsfr pretty-prints and
// replays them.
//
// Usage:
//
//	slmsd [flags]
//
// Flags:
//
//	-addr HOST:PORT        listen address (default 127.0.0.1:8347)
//	-workers N             concurrent pipeline executions (default GOMAXPROCS)
//	-queue N               admission queue depth (default 64)
//	-timeout DUR           default per-request pipeline budget (default 10s)
//	-max-timeout DUR       maximum a request may ask for (default 60s)
//	-cache N               response cache entries (default 512; negative disables)
//	-max-body BYTES        request body limit (default 1 MiB)
//	-drain-timeout DUR     graceful shutdown budget (default 30s)
//	-access-log DEST       access-log destination: stderr (default), stdout, off, or a file path
//	-flight-dir DIR        flight-dump directory (default "" = keep dumps in memory only)
//	-flight-cooldown DUR   minimum spacing between anomaly dumps (default 30s)
//	-flight-ring N         per-endpoint flight ring capacity (default 64)
//	-flight-body-cap N     request-body bytes retained per flight record (default 4096)
//	-no-flight             disable the flight recorder
//	-trace FILE            write a pipeline trace at exit
//	-trace-format chrome|jsonl
//	-metrics FILE          write a metrics dump at exit ("-" = stdout)
//	-q                     suppress status output
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slms/internal/obs"
	"slms/internal/obs/flight"
	"slms/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address")
	workers := flag.Int("workers", 0, "concurrent pipeline executions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth before 429s")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request pipeline budget")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "maximum per-request budget a client may ask for")
	cacheEntries := flag.Int("cache", 512, "response cache entries (negative disables)")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit in bytes")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	accessLog := flag.String("access-log", "stderr", "access-log destination: stderr, stdout, off, or a file path")
	flightDir := flag.String("flight-dir", "", "flight-dump directory (empty keeps dumps in memory only)")
	flightCooldown := flag.Duration("flight-cooldown", 30*time.Second, "minimum spacing between anomaly-triggered flight dumps")
	flightRing := flag.Int("flight-ring", 64, "per-endpoint flight ring capacity in requests")
	flightBodyCap := flag.Int("flight-body-cap", 4096, "request-body bytes retained per flight record")
	noFlight := flag.Bool("no-flight", false, "disable the flight recorder")
	tele := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	tele.Activate()

	if flag.NArg() != 0 {
		obs.Usagef("slmsd takes no positional arguments (got %q)", flag.Arg(0))
	}
	if *workers < 0 {
		obs.Usagef("-workers must be non-negative, got %d", *workers)
	}
	if *queue < 0 {
		obs.Usagef("-queue must be non-negative, got %d", *queue)
	}
	if *timeout <= 0 || *maxTimeout <= 0 || *drainTimeout <= 0 {
		obs.Usagef("-timeout, -max-timeout and -drain-timeout must be positive")
	}
	if *timeout > *maxTimeout {
		obs.Usagef("-timeout %v exceeds -max-timeout %v", *timeout, *maxTimeout)
	}
	if *flightCooldown <= 0 {
		obs.Usagef("-flight-cooldown must be positive, got %v", *flightCooldown)
	}
	if *flightRing <= 0 || *flightBodyCap <= 0 {
		obs.Usagef("-flight-ring and -flight-body-cap must be positive")
	}

	accessDst, closeAccess, err := openAccessLog(*accessLog)
	if err != nil {
		obs.Fatalf("-access-log: %v", err)
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheEntries:   *cacheEntries,
		MaxBodyBytes:   *maxBody,
		AccessLog:      accessDst,
		Flight: flight.Config{
			Dir:      *flightDir,
			Cooldown: *flightCooldown,
			RingSize: *flightRing,
			BodyCap:  *flightBodyCap,
			Disabled: *noFlight,
		},
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		obs.Fatalf("listen: %v", err)
	}
	obs.Logf("slmsd listening on %s (workers=%d queue=%d timeout=%v)",
		ln.Addr(), *workers, *queue, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// SIGQUIT is the operator's "dump everything": force a flight dump
	// (bypassing the anomaly cooldown), then drain and exit cleanly like
	// SIGTERM. Registering the handler replaces the Go runtime's
	// stack-dump-and-die default.
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	exit := 0
	drain := false
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Errorf("serve: %v", err)
			exit = 1
		}
	case <-sigq:
		obs.Logf("slmsd caught SIGQUIT: writing flight dump, then draining")
		srv.Flight().ForceTrigger(flight.TrigSigquit, "")
		drain = true
	case <-ctx.Done():
		stop() // a second signal kills immediately
		drain = true
	}
	if drain {
		obs.Logf("slmsd draining (budget %v)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		// Drain first so /v1 requests finish and new ones see 503, then
		// shut the listener down.
		if err := srv.Drain(dctx); err != nil {
			obs.Errorf("%v", err)
			exit = 1
		}
		if err := hs.Shutdown(dctx); err != nil {
			obs.Errorf("shutdown: %v", err)
			exit = 1
		}
		cancel()
		obs.Logf("slmsd stopped")
	}
	// Let in-flight dumps (SIGQUIT's, drain's, any late anomaly's)
	// finish writing before the process exits.
	srv.Flight().Sync()
	if err := tele.Finish(); err != nil {
		obs.Errorf("%v", err)
		exit = 1
	}
	closeAccess() // os.Exit skips defers
	os.Exit(exit)
}

// openAccessLog resolves the -access-log destination. "off" disables
// the log (nil writer); stderr and stdout map to the process streams;
// anything else opens (appending) a file. The returned closer is a
// no-op except for the file case.
func openAccessLog(dest string) (io.Writer, func(), error) {
	switch dest {
	case "off", "":
		return nil, func() {}, nil
	case "stderr":
		return os.Stderr, func() {}, nil
	case "stdout":
		return os.Stdout, func() {}, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
