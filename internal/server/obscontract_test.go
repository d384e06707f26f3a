package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slms/internal/obs"
	"slms/internal/obs/flight"
	"slms/internal/obs/promexp"
)

// The observability contract tests: one served request must yield one
// correlated record set — the X-Request-ID header, the access-log line,
// the span tree, and the SLMS2xx/3xx decision records all stamped with
// the same ID — with a supplied W3C traceparent's trace-id taking
// precedence over a minted ID, and a malformed traceparent never
// rejecting the request.

const (
	corrTraceparent = "00-6e0c63257de34c92bf9efcd03927272e-00f067aa0ba902b7-01"
	corrTraceID     = "6e0c63257de34c92bf9efcd03927272e"
	corrTraceparen2 = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	corrTraceID2    = "0af7651916cd43dd8448eb211c80319c"
)

// syncBuf is an access-log destination tests can read while the server
// may still be writing (the access line lands after the response).
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func postTraced(t *testing.T, url, body, traceparent string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestRequestCorrelation is the tentpole contract: a request with a
// supplied traceparent produces an access-log line, a span tree and
// decision records that all carry the traceparent's trace-id, which
// also returns as X-Request-ID. A byte-identical repeat takes the
// cached fast path and still correlates under its own traceparent.
func TestRequestCorrelation(t *testing.T) {
	tr := obs.NewTracer()
	obs.Enable(tr)
	defer obs.Disable()

	var logBuf syncBuf
	_, ts := newTestServer(t, Config{AccessLog: &logBuf})

	// A source no other test compiles, so the transform cache cannot
	// swallow the decision records this test asserts on.
	src := jsonBody(`float A[64]; float B[64];
float t = 0.0; float s = 1.5;
for (i = 0; i < 64; i++) {
	t = A[i] * B[i];
	s = s + t;
}
`, "")

	resp, _ := postTraced(t, ts.URL+"/v1/compile", src, corrTraceparent)
	if resp.StatusCode != 200 {
		t.Fatalf("compile = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != corrTraceID {
		t.Fatalf("X-Request-ID = %q, want the traceparent's trace-id %q", got, corrTraceID)
	}

	// Access log: one line, stamped with the trace-id, miss disposition,
	// a real fingerprint and a deadline.
	waitFor(t, "access line", func() bool {
		return strings.Contains(logBuf.String(), "req="+corrTraceID)
	})
	line := findAccessLine(t, logBuf.String(), "req="+corrTraceID)
	for _, want := range []string{"access endpoint=compile", "status=200", "cache=miss"} {
		if !strings.Contains(line, want) {
			t.Errorf("access line %q missing %q", line, want)
		}
	}
	fp := accessField(t, line, "fp")
	if fp == "-" || fp == "" {
		t.Errorf("access line %q has no fingerprint", line)
	}
	if dl := accessField(t, line, "deadline_ms"); dl == "-1" {
		t.Errorf("access line %q reports no deadline for a deadline-bounded request", line)
	}

	// Span tree: a root named server.compile carrying the trace-id, with
	// at least one descendant, and no span of this tree differently
	// stamped.
	var root *obs.Span
	for _, sp := range tr.Spans() {
		if sp.Name == "server.compile" && sp.Req == corrTraceID {
			root = sp
		}
	}
	if root == nil {
		t.Fatalf("no server.compile span stamped %q in trace", corrTraceID)
	}
	children := 0
	for _, sp := range tr.Spans() {
		if sp.RootID != root.RootID {
			continue
		}
		if sp.Req != corrTraceID {
			t.Errorf("span %q in the request tree stamped %q, want %q", sp.Name, sp.Req, corrTraceID)
		}
		if sp.ID != root.ID {
			children++
		}
	}
	if children == 0 {
		t.Errorf("request span tree has no children; correlation through the pipeline is broken")
	}

	// Decision records: the compile considered at least one loop, and
	// every record it emitted is an event of a span in the request's
	// tree, which carries the trace-id.
	stamped := 0
	for _, sp := range tr.Spans() {
		for range sp.Decisions() {
			if sp.RootID == root.RootID && sp.Req == corrTraceID {
				stamped++
			}
		}
	}
	if stamped == 0 {
		t.Errorf("no decision records in the span tree stamped %q; decisions = %+v", corrTraceID, tr.Decisions())
	}

	// Byte-identical repeat: zero-alloc fast path, correlated under the
	// second request's own traceparent, same fingerprint as the miss.
	resp2, _ := postTraced(t, ts.URL+"/v1/compile", src, corrTraceparen2)
	if resp2.StatusCode != 200 {
		t.Fatalf("cached compile = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Request-ID"); got != corrTraceID2 {
		t.Errorf("cached X-Request-ID = %q, want %q", got, corrTraceID2)
	}
	if got := resp2.Header.Get("X-SLMS-Cache"); got != "hit" {
		t.Errorf("cached X-SLMS-Cache = %q, want hit", got)
	}
	waitFor(t, "cached access line", func() bool {
		return strings.Contains(logBuf.String(), "req="+corrTraceID2)
	})
	hitLine := findAccessLine(t, logBuf.String(), "req="+corrTraceID2)
	if !strings.Contains(hitLine, "cache=hit") {
		t.Errorf("cached access line %q not marked cache=hit", hitLine)
	}
	if hitFP := accessField(t, hitLine, "fp"); hitFP != fp {
		t.Errorf("cached access line fp = %q, miss line fp = %q; hit and miss of one kernel must correlate", hitFP, fp)
	}
}

// TestExplainRequestCorrelation: a fresh explain transforms its program
// once, under the request span, so every SLMS2xx decision record it
// files is an event of the request's span tree, under the request's ID
// — one record per loop, none filed outside the request.
func TestExplainRequestCorrelation(t *testing.T) {
	resetMemo(t)
	tr := obs.NewTracer()
	obs.Enable(tr)
	defer obs.Disable()
	_, ts := newTestServer(t, Config{})

	resp, _ := postTraced(t, ts.URL+"/v1/explain", jsonBody(explainLoopSource, ""), corrTraceparent)
	if resp.StatusCode != 200 {
		t.Fatalf("explain = %d, want 200", resp.StatusCode)
	}
	decs := tr.Decisions()
	if len(decs) != 1 {
		t.Errorf("a fresh explain of one loop filed %d decision records, want 1: %+v", len(decs), decs)
	}
	for _, sp := range tr.Spans() {
		for _, d := range sp.Decisions() {
			if root := sp.Tree()[0]; !strings.HasPrefix(d.Code, "SLMS2") || sp.Req != corrTraceID || root.Name != "server.explain" {
				t.Errorf("decision %s in tree %q stamped %q, want an SLMS2xx record in server.explain's tree stamped %q",
					d.Code, root.Name, sp.Req, corrTraceID)
			}
		}
	}
}

// findAccessLine returns the first access-log line containing marker.
func findAccessLine(t *testing.T, log, marker string) string {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, marker) {
			return line
		}
	}
	t.Fatalf("no access line containing %q in log:\n%s", marker, log)
	return ""
}

// accessField extracts one k=v field from an access-log line.
func accessField(t *testing.T, line, key string) string {
	t.Helper()
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	t.Fatalf("access line %q has no field %q", line, key)
	return ""
}

var mintedIDPattern = regexp.MustCompile(`^r\d{8,}$`)

// TestMalformedTraceparentMintsID pins the edge cases: a malformed
// traceparent must never 4xx — the server mints a fresh ID and serves
// the request normally, on both the slow and the cached fast path.
func TestMalformedTraceparentMintsID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		tp   string
	}{
		{"bad_version_ff", "ff-6e0c63257de34c92bf9efcd03927272e-00f067aa0ba902b7-01"},
		{"short_trace_id", "00-6e0c63257de34c92bf9efcd03927-00f067aa0ba902b7-01"},
		{"non_hex", "00-6e0c63257de34c92bf9efcd03927272g-00f067aa0ba902b7-01"},
		{"uppercase", "00-6E0C63257DE34C92BF9EFCD03927272E-00f067aa0ba902b7-01"},
		{"zero_trace_id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01"},
		{"truncated", "00-abc"},
		{"garbage", "not-a-traceparent-at-all"},
		{"whitespace", "   "},
	}

	// First pass primes the cache (slow path), second pass repeats the
	// same bodies (fast path); both must answer 200 with a minted ID.
	for pass, pathName := range []string{"slow", "fast"} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s_%s", pathName, tc.name), func(t *testing.T) {
				resp, body := postTraced(t, ts.URL+"/v1/compile", jsonBody(dotSource, ""), tc.tp)
				if resp.StatusCode != 200 {
					t.Fatalf("pass %d with traceparent %q = %d, want 200; body: %s",
						pass, tc.tp, resp.StatusCode, body)
				}
				id := resp.Header.Get("X-Request-ID")
				if !mintedIDPattern.MatchString(id) {
					t.Errorf("X-Request-ID = %q, want a minted r%%08d ID", id)
				}
			})
		}
	}
}

// TestStatusEndpoint covers /v1/status: SLO accounting reflects served
// requests, client errors burn no error budget, and the endpoint stays
// readable while draining.
func TestStatusEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/compile", jsonBody(dotSource, ""))
	post(t, ts.URL+"/v1/compile", `{"bogus`) // 400: no budget burned

	resp, body := get(t, ts.URL+"/v1/status")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/status = %d, want 200", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, body)
	}
	if st.Status != "ok" || !st.SLO.OK {
		t.Errorf("status = %q (slo ok=%v), want ok", st.Status, st.SLO.OK)
	}
	compile := -1
	for i, ep := range st.SLO.Endpoints {
		if ep.Endpoint == "compile" {
			compile = i
		}
	}
	if compile < 0 {
		t.Fatalf("no compile endpoint in SLO status: %+v", st.SLO)
	}
	ep := st.SLO.Endpoints[compile]
	if ep.Requests < 2 {
		t.Errorf("compile window requests = %d, want >= 2", ep.Requests)
	}
	if ep.Errors != 0 || !ep.ErrorBudgetOK {
		t.Errorf("a 400 burned error budget: %+v", ep)
	}
	if ep.P50Seconds <= 0 {
		t.Errorf("compile p50 = %g, want > 0", ep.P50Seconds)
	}
	// Every registered endpoint is listed from the start: one never
	// called reads zero requests.
	var names []string
	for _, ep := range st.SLO.Endpoints {
		names = append(names, ep.Endpoint)
		if ep.Endpoint != "compile" && ep.Requests != 0 {
			t.Errorf("uncalled endpoint %s reads %d requests", ep.Endpoint, ep.Requests)
		}
	}
	if got := strings.Join(names, " "); got != "compile explain profile schedule" {
		t.Errorf("SLO endpoints = %s, want every registered endpoint", got)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, body = get(t, ts.URL+"/v1/status")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/status while draining = %d, want 200", resp.StatusCode)
	}
	st = StatusResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding draining status: %v", err)
	}
	if st.Status != "draining" || !st.Draining {
		t.Errorf("draining status = %+v, want status=draining", st)
	}
}

// TestMetricsEndpoint covers /metrics: the payload passes the in-repo
// Prometheus linter and carries the per-endpoint families.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/compile", jsonBody(dotSource, ""))

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the text format version", ct)
	}
	if problems := promexp.Lint(bytes.NewReader(body)); len(problems) != 0 {
		t.Errorf("/metrics fails lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		`slms_server_requests_total{endpoint="compile"}`,
		`slms_server_latency_seconds_bucket{endpoint="compile",le="+Inf"}`,
		"slms_server_cache_misses_total",
		"slms_server_workers_busy",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAccessLogAtomicLines hammers one server from many goroutines and
// asserts every access-log line is whole — the single-Write discipline
// means no interleaving even under contention.
func TestAccessLogAtomicLines(t *testing.T) {
	var logBuf syncBuf
	_, ts := newTestServer(t, Config{AccessLog: &logBuf})
	const workers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
					strings.NewReader(jsonBody(dotSource, "")))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "all access lines", func() bool {
		return strings.Count(logBuf.String(), "\n") >= workers*per
	})
	lineRE := regexp.MustCompile(`^access endpoint=\S+ status=\d+ req=\S+ fp=\S+ cache=\S+ deadline_ms=-?\d+ dur_us=\d+$`)
	for _, line := range strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n") {
		if !lineRE.MatchString(line) {
			t.Fatalf("malformed (interleaved?) access line: %q", line)
		}
	}
}

// TestOneRecordPerRequest: every per-request output comes from one
// record. A slow-path miss, its byte-identical fast-path hit and a 422
// each leave an access line whose fields equal the request's flight
// ring record, in order, and the SLO window counts all three.
func TestOneRecordPerRequest(t *testing.T) {
	var logBuf syncBuf
	s, ts := newTestServer(t, Config{AccessLog: &logBuf})
	miss := jsonBody(`float A[48]; float B[48];
for (i = 0; i < 48; i++) { A[i] = B[i] * 0.25; }
`, "")
	for i, body := range []string{miss, miss, `{"source": "for (i = 0; i <"}`} {
		post(t, ts.URL+"/v1/compile", body)
		// The line is the last thing a request writes; waiting for it
		// keeps the lines and ring records in request order.
		waitFor(t, "access line", func() bool { return strings.Count(logBuf.String(), "\n") == i+1 })
	}
	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")

	s.Flight().ForceTrigger(flight.TrigSigquit, "test")
	s.Flight().Sync()
	blob, _, ok := s.Flight().Latest()
	if !ok {
		t.Fatal("no flight dump")
	}
	d, err := flight.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Timeline()
	if len(recs) != len(lines) {
		t.Fatalf("%d ring records, %d access lines:\n%s", len(recs), len(lines), logBuf.String())
	}
	orDash := func(v string) string {
		if v == "" {
			return "-"
		}
		return v
	}
	for i, rec := range recs {
		want := map[string]string{
			"status": strconv.Itoa(rec.Status), "req": orDash(rec.RequestID),
			"fp": orDash(rec.Fingerprint), "cache": orDash(rec.Cache),
			"deadline_ms": strconv.FormatInt(rec.DeadlineMS, 10), "dur_us": strconv.FormatInt(rec.DurUS, 10),
		}
		for k, v := range want {
			if got := accessField(t, lines[i], k); got != v {
				t.Errorf("request %d: access line %s=%s, ring record %s=%s\n%s", i, k, got, k, v, lines[i])
			}
		}
	}
	if got := []string{recs[0].Cache, recs[1].Cache}; got[0] != "miss" || got[1] != "hit" {
		t.Errorf("cache states = %v, want [miss hit]", got)
	}
	if recs[2].Status != 422 {
		t.Errorf("third record status = %d, want 422", recs[2].Status)
	}

	_, body := get(t, ts.URL+"/v1/status")
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, body)
	}
	requests := int64(-1)
	for _, ep := range st.SLO.Endpoints {
		if ep.Endpoint == "compile" {
			requests = ep.Requests
		}
	}
	if requests != 3 {
		t.Errorf("/v1/status counts %d compile requests, want 3", requests)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// Each non-200 response adds exactly one to its route's
// server.<endpoint>.status.<code> counter: a client error, a source
// error and a throttle each count once, and a repeat of a code counts
// through the same counter again.
func TestStatusCountersCountEachResponse(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.handle("hold", "/v1/hold", func(ctx context.Context, req *Request) (any, *apiError) {
		entered <- struct{}{}
		<-release
		return map[string]string{"ok": "true"}, nil
	})
	url := serveHTTP(t, s)
	counter := func(ep string, code int) *obs.Counter {
		return obs.CounterName(fmt.Sprintf("server.%s.status.%d", ep, code))
	}
	type reading struct {
		ep   string
		code int
	}
	before := map[reading]int64{}
	for _, r := range []reading{{"compile", 400}, {"compile", 422}, {"hold", 429}} {
		before[r] = counter(r.ep, r.code).Value()
	}
	// A response is counted as its handler finishes, which may be just
	// after the client has read it.
	expect := func(r reading, n int64) {
		t.Helper()
		rise := func() int64 { return counter(r.ep, r.code).Value() - before[r] }
		waitFor(t, "status count", func() bool { return rise() >= n })
		if got := rise(); got != n {
			t.Errorf("server.%s.status.%d rose by %d, want %d", r.ep, r.code, got, n)
		}
	}
	if resp, _ := post(t, url+"/v1/compile", `{"source": `); resp.StatusCode != 400 {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	expect(reading{"compile", 400}, 1)
	if resp, _ := post(t, url+"/v1/compile", jsonBody("B[0] = ;\n", "")); resp.StatusCode != 422 {
		t.Fatalf("parse error: status %d, want 422", resp.StatusCode)
	}
	expect(reading{"compile", 422}, 1)
	expect(reading{"compile", 400}, 1)

	// One request holds the worker, one waits in the queue, the third
	// is throttled.
	done := make(chan error, 2)
	bgPost := func(body string) {
		go func() {
			resp, err := http.Post(url+"/v1/hold", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	bgPost(`{"source": "x = 1;"}`)
	<-entered
	bgPost(`{"source": "y = 2;"}`)
	waitFor(t, "queued request", func() bool { return s.adm.depth() == 1 })
	if resp, _ := post(t, url+"/v1/hold", `{"source": "z = 3;"}`); resp.StatusCode != 429 {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	expect(reading{"hold", 429}, 1)
	release <- struct{}{}
	release <- struct{}{}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	if resp, _ := post(t, url+"/v1/compile", `{}`); resp.StatusCode != 400 {
		t.Fatalf("missing source: status %d, want 400", resp.StatusCode)
	}
	expect(reading{"compile", 400}, 2)
	expect(reading{"compile", 422}, 1)
	expect(reading{"hold", 429}, 1)
}
