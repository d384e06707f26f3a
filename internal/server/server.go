// Package server exposes the SLMS pipeline as a concurrent HTTP
// service: /v1/compile (source-level modulo scheduling), /v1/schedule
// (compile + cycle-accurate simulation, base vs SLMS), /v1/explain
// (per-loop decision records and translation-validation diagnostics)
// and /v1/profile (cycle attribution), plus the observability surface:
// /metrics (Prometheus text format), /v1/status (rolling-window SLO
// accounting), /healthz and /readyz.
//
// The server is built for load, not as a thin wrapper: a bounded worker
// pool with a bounded admission queue (429 + Retry-After past
// capacity), per-request deadlines threaded down through
// pipeline/sim as contexts with in-loop cancellation checkpoints, a
// singleflight-deduplicated fingerprint-keyed LRU response cache,
// panic-isolated handlers (500 + request ID, never a crashed process),
// graceful drain that completes every admitted request, and
// per-endpoint metrics/spans in internal/obs. Responses carry the
// SLMS2xx decision records for every loop the pipeline considered.
//
// Every request is correlated under one ID: a valid incoming W3C
// traceparent contributes its trace-id, anything else gets a minted
// "r%08d". The ID rides the request context through admission, the
// singleflight cache, the per-loop transform and the simulator, so one
// request yields one span tree, one access-log line and SLMS2xx/3xx
// decision records all stamped with the same ID, and comes back to the
// client as X-Request-ID.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"slms/internal/obs"
	"slms/internal/obs/flight"
	"slms/internal/obs/promexp"
	"slms/internal/obs/slo"
)

// Config tunes the server; zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing pipeline requests
	// (default runtime.GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before new
	// arrivals get 429 (default 64).
	QueueDepth int
	// DefaultTimeout is the per-request pipeline budget when the request
	// names none (default 10s); MaxTimeout caps what a request may ask
	// for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheEntries sizes the response LRU (default 512; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// AccessLog receives one structured line per finished request
	// (default nil = no access log). Lines are written atomically —
	// one Write each — so any destination shared with other loggers
	// stays interleaving-free.
	AccessLog io.Writer
	// Flight tunes the flight recorder (see internal/obs/flight). The
	// zero value enables it with defaults: always-on in-memory capture,
	// dumps kept in memory only until Flight.Dir names a directory.
	Flight flight.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is one SLMS compilation service instance.
type Server struct {
	cfg    Config
	adm    *admission
	cache  *respCache
	mux    *http.ServeMux
	access *accessLog
	slo    *slo.Tracker
	flight *flight.Recorder
	// routes maps endpoint names to their wrapped handlers so benchmarks
	// can invoke an endpoint directly, without mux routing.
	routes map[string]http.HandlerFunc

	// Drain coordination: beginRequest registers in-flight work under a
	// read lock; Drain flips the flag under the write lock, so no
	// request can register after the flag is set and the WaitGroup wait
	// cannot miss one.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	reqSeq    atomic.Int64
	admitted  atomic.Int64 // requests that passed admission
	completed atomic.Int64 // admitted requests that finished

	reqCtr      *obs.Counter
	panicCtr    *obs.Counter
	inflightGge *obs.Gauge
}

// New builds a Server and registers its routes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		adm:         newAdmission(cfg.Workers, cfg.QueueDepth),
		cache:       newRespCache(cfg.CacheEntries),
		mux:         http.NewServeMux(),
		access:      newAccessLog(cfg.AccessLog),
		slo:         slo.New(),
		routes:      map[string]http.HandlerFunc{},
		reqCtr:      obs.CounterName("server.requests"),
		panicCtr:    obs.CounterName("server.panics"),
		inflightGge: obs.GaugeName("server.inflight"),
	}
	s.flight = flight.New(cfg.Flight)
	s.flight.AddState("server", func() any { return s.Stats() })
	s.flight.AddState("slo", func() any { return s.slo.Snapshot() })
	// An endpoint window crossing its error or throttle budget is an
	// anomaly worth a dump; the recorder's cooldown keeps a sustained
	// breach from flooding the dump dir.
	s.slo.SetOnBreach(func(endpoint string, _ slo.EndpointStatus) {
		s.flight.Trigger(flight.TrigSLOBreach, endpoint)
	})
	s.handle("compile", "/v1/compile", s.handleCompile)
	s.handle("schedule", "/v1/schedule", s.handleSchedule)
	s.handle("explain", "/v1/explain", s.handleExplain)
	s.handle("profile", "/v1/profile", s.handleProfile)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.Handle("/metrics", promexp.Handler(obs.Default))
	s.mux.Handle("/debug/flight", flight.Handler(s.flight))
	s.mux.Handle("/debug/flight/", flight.Handler(s.flight))
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Flight returns the server's flight recorder (never nil; it may be
// disabled).
func (s *Server) Flight() *flight.Recorder { return s.flight }

// handlerFunc is one endpoint implementation: it returns the rendered
// response or an API error; the wrapper owns serialization, request
// IDs, panic isolation and metrics.
type handlerFunc func(ctx context.Context, req *Request) (any, *apiError)

// route holds one endpoint's per-request sinks, resolved once when the
// endpoint is registered so neither request path pays a lookup. ring is
// nil when the flight recorder is disabled; every Ring method no-ops on
// nil.
type route struct {
	name      string
	ring      *flight.Ring
	latency   *obs.Histogram
	errors    *obs.Counter
	status200 *obs.Counter
	slo       *slo.Tracker
	access    *accessLog
}

// finish derives every per-request output from the request's one
// record: the flight ring, the latency and status series, the SLO
// window and the access line. The ring comes first: an SLO breach
// fires its dump synchronously inside the window's Observe, and that
// dump must already hold the breaching request (capture before
// observe). o may alias pooled memory; nothing here retains it past the
// call.
func (rt *route) finish(o *flight.Obs) {
	rt.ring.Record(o)
	rt.latency.Observe(o.Dur)
	if o.Status == 200 {
		rt.status200.Add(1)
	} else {
		obs.CounterName(fmt.Sprintf("server.%s.status.%d", rt.name, o.Status)).Add(1)
	}
	if o.Status >= 400 {
		rt.errors.Add(1)
	}
	rt.slo.Observe(rt.name, o.Status, o.Dur)
	rt.access.line(rt.name, o)
}

// handle registers an endpoint behind the standard wrapper: POST-only,
// request IDs, drain refusal, panic isolation, per-endpoint
// metrics/spans, deadline derivation, admission + response cache.
// Tests also use it to mount misbehaving handlers.
//
// The wrapper is split in two: a zero-allocation fast path that answers
// byte-identical repeats of previously cached requests straight from
// the pre-serialized cache entry, and the full slow path for everything
// else. The fast path still counts the request, consumes a sequence
// number, respects drain, touches the LRU and finishes through the same
// record as the slow path — it only skips work that mints garbage
// (request-ID formatting, JSON decoding, contexts, spans, header Set).
func (s *Server) handle(name, pattern string, h handlerFunc) {
	requests := obs.CounterName("server." + name + ".requests")
	rt := &route{
		name:      name,
		ring:      s.flight.Endpoint(name),
		latency:   obs.HistName("server." + name + ".latency"),
		errors:    obs.CounterName("server." + name + ".errors"),
		status200: obs.CounterName("server." + name + ".status.200"),
		slo:       s.slo,
		access:    s.access,
	}

	// slow is the full request path. st holds the body the fast path
	// read (endpoint-prefixed) and its digest, after registering the
	// request with drain control; it is nil only for a request refused
	// before either: a non-POST or a POST to a draining server.
	slow := func(w http.ResponseWriter, r *http.Request, seq int64, start time.Time, st *fastReq, tooLarge bool) {
		// The request ID: a valid W3C traceparent contributes its
		// trace-id; anything else — including a malformed header, which
		// must never fail the request — gets a minted ID.
		o := flight.Obs{DeadlineMS: -1}
		if tp := r.Header.Get("traceparent"); tp != "" {
			if id, ok := obs.ParseTraceparent(tp); ok {
				o.RequestID = id
			}
		}
		if o.RequestID == "" {
			o.RequestID = fmt.Sprintf("r%08d", seq)
		}
		reqID := o.RequestID
		w.Header().Set("X-Request-ID", reqID)

		var deadline time.Time
		var sp *obs.Span
		panicked := false
		// fail renders the error envelope while capturing the stable
		// code (and any positioned diagnostics) for the record.
		fail := func(ae *apiError) {
			o.ErrCode = ae.code
			if len(ae.diags) > 0 {
				o.Decisions = diagNotes(ae.diags)
			}
			o.Status = s.writeError(w, reqID, ae)
		}
		defer func() {
			o.Dur = time.Since(start)
			if !deadline.IsZero() {
				o.DeadlineMS = time.Until(deadline).Milliseconds()
			}
			// With tracing off there is no span tree; a one-note summary
			// keeps the record's shape uniform.
			if o.Spans = flight.SpanTree(obs.Active(), sp); o.Spans == nil {
				o.Spans = []flight.SpanNote{{Name: "server." + name, DurUS: o.Dur.Microseconds()}}
			}
			if st != nil {
				o.Body, o.Truncated = st.body(len(name)+1), tooLarge
			}
			rt.finish(&o)
			// The record's body aliases the pooled buffer: recycle it
			// only once the record is finished.
			if st != nil {
				putFastReq(st)
			}
			// Anomalies dump after the record lands so the dump contains
			// the request that triggered it. Drain refusals (503) are
			// designed shedding, not an anomaly — drain fires its own
			// forced dump.
			switch {
			case panicked:
				s.flight.Trigger(flight.TrigPanic, name+" "+reqID)
			case o.Status == 504:
				s.flight.Trigger(flight.TrigDeadline, name+" "+reqID)
			case o.Status >= 500 && o.Status != 503:
				s.flight.Trigger(flight.Trig5xx, name+" "+reqID)
			}
		}()

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			fail(&apiError{
				status: 405, code: CodeMethodNotAllowed,
				msg: fmt.Sprintf("%s requires POST", pattern)})
			return
		}
		if st == nil { // draining: the fast path's beginRequest refused it
			fail(errDraining)
			return
		}
		defer s.endRequest()

		// Panic isolation: a handler bug answers 500 with the request ID
		// and a server-side log; the process and every other in-flight
		// request keep going.
		defer func() {
			if rec := recover(); rec != nil {
				panicked = true
				s.panicCtr.Add(1)
				obs.Errorf("server: %s: panic serving %s: %v\n%s", reqID, pattern, rec, debug.Stack())
				fail(&apiError{
					status: 500, code: CodeInternal,
					msg: "internal error; see server log for request " + reqID})
			}
		}()

		req, aerr := decodeRequestBytes(st.body(len(name)+1), s.cfg.MaxBodyBytes, tooLarge)
		if aerr != nil {
			fail(aerr)
			return
		}
		budget, aerr := requestDeadline(req, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		if aerr != nil {
			fail(aerr)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		deadline, _ = ctx.Deadline()

		// Thread the ID down: the root span stamps it on every child
		// (per-loop transform spans, simulator legs) and on the
		// decision records they emit; the context carries the span to
		// code that only sees ctx.
		sp = obs.RootRequest("server."+name, reqID).Attr("request", reqID)
		defer sp.End()
		ctx = obs.ContextWithSpan(ctx, sp)

		key := req.Fingerprint(name)
		o.Fingerprint = key
		resp, hit, aerr := s.cache.do(ctx, key, func() (*cachedResponse, *apiError) {
			if aerr := s.adm.acquire(ctx); aerr != nil {
				return nil, aerr
			}
			defer s.adm.release()
			s.admitted.Add(1)
			s.inflightGge.Set(s.admitted.Load() - s.completed.Load())
			defer func() {
				s.completed.Add(1)
				s.inflightGge.Set(s.admitted.Load() - s.completed.Load())
			}()
			body, aerr := h(ctx, req)
			if aerr != nil {
				return nil, aerr
			}
			// Capture the response's SLMS2xx/3xx decision records for
			// the record. Only the singleflight leader computes, so
			// deduplicated followers record without decisions — like any
			// cache hit, their work happened elsewhere.
			o.Decisions = responseDecisions(body)
			blob, err := json.MarshalIndent(body, "", "  ")
			if err != nil {
				obs.Errorf("server: %s: marshaling %s response: %v", reqID, pattern, err)
				return nil, &apiError{status: 500, code: CodeInternal,
					msg: "internal error; see server log for request " + reqID}
			}
			return &cachedResponse{status: 200, body: append(blob, '\n')}, nil
		})
		if aerr != nil {
			sp.Attr("error", aerr.code)
			fail(aerr)
			return
		}
		if st.hasRaw && resp.status == 200 {
			// Index the cached entry by the raw body digest so the next
			// byte-identical request takes the zero-allocation path.
			s.cache.addAlias(st.raw, key)
		}
		o.Cache = "miss"
		if hit {
			o.Cache = "hit"
		}
		sp.Attr("cache", o.Cache)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-SLMS-Cache", o.Cache)
		o.Status = resp.status
		w.WriteHeader(resp.status)
		w.Write(resp.body)
	}

	fn := func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		seq := s.reqSeq.Add(1)
		s.reqCtr.Add(1)
		requests.Add(1)

		if r.Method != http.MethodPost || !s.beginRequest() {
			slow(w, r, seq, start, nil, false)
			return
		}
		st := getFastReq()
		st.buf = append(append(st.buf[:0], name...), 0)
		tooLarge := st.readBody(r.Body, s.cfg.MaxBodyBytes)
		if !tooLarge {
			st.raw = sha256.Sum256(st.buf)
			st.hasRaw = true
			if resp, key, ok := s.cache.fastGet(st.raw); ok {
				// Request ID without minting garbage: a valid
				// traceparent's trace-id is a substring of the header
				// value; a minted ID formats into the pooled idBuf.
				// idVal[:] goes into the header map as-is.
				reqID := ""
				if tp := r.Header["Traceparent"]; len(tp) > 0 {
					if id, pok := obs.ParseTraceparent(tp[0]); pok {
						reqID = id
					}
				}
				if reqID == "" {
					reqID = st.mintRequestID(seq)
				}
				st.idVal[0] = reqID
				hdr := w.Header()
				hdr[headerContentType] = headerJSON
				hdr[headerCacheState] = headerCacheHit
				hdr[headerRequestID] = st.idVal[:]
				w.WriteHeader(resp.status)
				w.Write(resp.body)
				// The minted ID aliases pooled memory and net/http may
				// serialize headers after this handler returns; flushing
				// forces serialization now, before the fastReq is pooled.
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				// The record's ID and body alias the pooled fastReq, so
				// it is recycled only after finish. A cached hit never
				// builds a context, so it has no deadline.
				o := flight.Obs{Status: resp.status, RequestID: reqID, Fingerprint: key,
					Cache: "hit", DeadlineMS: -1, Dur: time.Since(start), Body: st.body(len(name) + 1)}
				rt.finish(&o)
				putFastReq(st)
				s.endRequest()
				return
			}
		}
		slow(w, r, seq, start, st, tooLarge)
	}
	s.mux.HandleFunc(pattern, fn)
	s.routes[name] = fn
}

// writeError renders the uniform error envelope and returns the status
// for metrics.
func (s *Server) writeError(w http.ResponseWriter, reqID string, ae *apiError) int {
	type errBody struct {
		Code        string       `json:"code"`
		Message     string       `json:"message"`
		RequestID   string       `json:"request_id"`
		Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	}
	w.Header().Set("Content-Type", "application/json")
	if ae.status == 429 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.RetryAfter.Seconds())))
	}
	w.WriteHeader(ae.status)
	blob, _ := json.MarshalIndent(map[string]errBody{"error": {
		Code: ae.code, Message: ae.msg, RequestID: reqID, Diagnostics: ae.diags,
	}}, "", "  ")
	w.Write(append(blob, '\n'))
	return ae.status
}

// beginRequest registers an in-flight request unless the server is
// draining.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endRequest() { s.inflight.Done() }

// Drain stops admitting work and waits for every in-flight request to
// complete (bounded by ctx). After Drain, /readyz answers 503 and the
// /v1 endpoints refuse with CodeDraining; /healthz still answers 200 so
// orchestrators can tell "draining" from "dead". Zero admitted requests
// are lost: everything registered before the flag flips runs to its
// normal response.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		// The process's last words: a forced dump after the final
		// request has recorded, so the postmortem shows the complete
		// serving history. Sync is the caller's choice (cmd/slmsd syncs
		// before exit); Drain itself stays fast.
		s.flight.ForceTrigger(flight.TrigDrain, "")
		return nil
	case <-ctx.Done():
		s.flight.ForceTrigger(flight.TrigDrain, "interrupted")
		return fmt.Errorf("server: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is a point-in-time operational snapshot, used by tests and
// /readyz.
type Stats struct {
	Workers        int   `json:"workers"`
	QueueDepth     int64 `json:"queue_depth"`
	QueueCapacity  int   `json:"queue_capacity"`
	MaxQueueDepth  int64 `json:"max_queue_depth"`
	Admitted       int64 `json:"admitted"`
	Completed      int64 `json:"completed"`
	QueueRejected  int64 `json:"queue_rejected"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheAliasHits int64 `json:"cache_alias_hits"`
	CacheEntries   int   `json:"cache_entries"`
}

// Stats snapshots the server's admission and cache counters.
func (s *Server) Stats() Stats {
	hits, misses := s.cache.stats()
	return Stats{
		Workers:        s.cfg.Workers,
		QueueDepth:     s.adm.depth(),
		QueueCapacity:  s.cfg.QueueDepth,
		MaxQueueDepth:  s.adm.maxDepth.Load(),
		Admitted:       s.admitted.Load(),
		Completed:      s.completed.Load(),
		QueueRejected:  s.adm.rejected.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheAliasHits: s.cache.aliasHits.Load(),
		CacheEntries:   s.cache.len(),
	}
}

// handleHealthz answers 200 for the life of the process — draining
// included, so orchestrators can tell "draining" (healthz ok, readyz
// 503) from "dead" (nothing answers). The body names the state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ready"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	blob, _ := json.MarshalIndent(struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}{status, s.Stats()}, "", "  ")
	w.Write(append(blob, '\n'))
}
