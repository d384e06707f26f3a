package server

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"slms/internal/obs"
)

// The HTTP contract tests: every endpoint and every error class is
// pinned to a golden response body. Bodies are deliberately
// deterministic (no timestamps; request IDs restart per server), so a
// golden mismatch means the wire contract changed — regenerate with
//
//	go test ./internal/server -run TestContract -update
//
// and review the diff like any other API change.

var update = flag.Bool("update", false, "rewrite golden files")

func TestMain(m *testing.M) {
	flag.Parse()
	obs.SetQuiet(true)
	obs.SetLogOutput(io.Discard) // panic-isolation tests log stacks
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := checkGoroutineLeak(before); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// checkGoroutineLeak fails the suite when it leaves goroutines behind:
// every server the tests built must wind down with its listener. Late
// finishers (async flight dumps, drain waiters, closing HTTP conns)
// get a grace window; a real leak is still here after it.
func checkGoroutineLeak(before int) error {
	// Keep-alive conns from the package-level http client hold a read
	// goroutine each until told otherwise.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	const slack = 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+slack {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("goroutine leak: %d before the suite, %d after (slack %d)\n%s",
		before, runtime.NumGoroutine(), slack, buf)
}

// dotSource is the paper's dot-product kernel: two loops' worth of
// pipelinable work in a body small enough to keep goldens reviewable.
const dotSource = `float A[100]; float B[100];
float t = 0.0; float s = 0.0;
for (i = 0; i < 100; i++) {
	t = A[i] * B[i];
	s = s + t;
}
`

// heavySource is big enough that its pipeline run cannot finish inside
// a 1ms budget (200 loops of ~4000 simulated iterations each), making
// deadline tests deterministic.
var heavySource = func() string {
	var b strings.Builder
	b.WriteString("float A[4096]; float B[4096]; float s = 0.0; float t = 0.0;\n")
	for i := 0; i < 200; i++ {
		b.WriteString("for (i = 2; i < 4000; i++) {\n")
		b.WriteString("\tt = A[i] * B[i] + A[i-1] * B[i-1] + A[i-2];\n")
		b.WriteString("\ts = s + t * B[i] + A[i] * 0.5;\n")
		b.WriteString("\tB[i] = t * 0.25 + s * 0.125;\n")
		b.WriteString("}\n")
	}
	return b.String()
}()

// newTestServer builds a fresh Server (deterministic request IDs start
// at r00000001) behind an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// serveHTTP mounts a prebuilt Server (tests register extra routes
// before serving) and returns its base URL.
func serveHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, blob
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response body diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// jsonBody quotes src into a minimal request body.
func jsonBody(src string, extra string) string {
	b := quoteJSON(src)
	if extra != "" {
		return fmt.Sprintf(`{"source": %s, %s}`, b, extra)
	}
	return fmt.Sprintf(`{"source": %s}`, b)
}

func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// TestContractEndpoints pins the success body of every endpoint.
func TestContractEndpoints(t *testing.T) {
	cases := []struct {
		name     string
		endpoint string
		body     string
	}{
		{"compile_ok", "/v1/compile", jsonBody(dotSource, "")},
		{"compile_paper", "/v1/compile", jsonBody(dotSource, `"paper": true`)},
		{"compile_options", "/v1/compile", jsonBody(dotSource,
			`"options": {"expansion": "array", "speculate": true}`)},
		{"schedule_ok", "/v1/schedule", jsonBody(dotSource, "")},
		{"schedule_strong_power4", "/v1/schedule", jsonBody(dotSource,
			`"machine": "power4", "compiler": "strong"`)},
		{"explain_ok", "/v1/explain", jsonBody(dotSource, "")},
		{"profile_ok", "/v1/profile", jsonBody(dotSource, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			resp, blob := post(t, ts.URL+tc.endpoint, tc.body)
			if resp.StatusCode != 200 {
				t.Fatalf("status = %d, want 200; body:\n%s", resp.StatusCode, blob)
			}
			if got := resp.Header.Get("X-SLMS-Cache"); got != "miss" {
				t.Errorf("X-SLMS-Cache = %q, want %q", got, "miss")
			}
			if got := resp.Header.Get("X-Request-ID"); got != "r00000001" {
				t.Errorf("X-Request-ID = %q, want r00000001", got)
			}
			checkGolden(t, tc.name, blob)
		})
	}
}

// TestContractErrors pins the body of every client-error class.
func TestContractErrors(t *testing.T) {
	cases := []struct {
		name     string
		endpoint string
		body     string
		status   int
	}{
		{"err_bad_json", "/v1/compile", `{"source": `, 400},
		{"err_unknown_field", "/v1/compile", `{"source": "x = 1;", "sauce": true}`, 400},
		{"err_trailing_json", "/v1/compile", `{"source": "x = 1;"} {"again": true}`, 400},
		{"err_missing_source", "/v1/compile", `{}`, 400},
		{"err_negative_timeout", "/v1/compile", `{"source": "x = 1;", "timeout_ms": -5}`, 400},
		{"err_timeout_too_large", "/v1/compile", `{"source": "x = 1;", "timeout_ms": 3600000}`, 400},
		{"err_bad_expansion", "/v1/compile", `{"source": "x = 1;", "options": {"expansion": "sideways"}}`, 400},
		{"err_bad_threshold", "/v1/compile", `{"source": "x = 1;", "options": {"threshold": 7.5}}`, 400},
		{"err_bad_machine", "/v1/schedule", `{"source": "x = 1;", "machine": "cray1"}`, 400},
		{"err_bad_compiler", "/v1/schedule", `{"source": "x = 1;", "compiler": "llvm"}`, 400},
		// Every field is validated on every endpoint, including the ones
		// whose computation does not read it.
		{"err_bad_machine_compile", "/v1/compile", `{"source": "x = 1;", "machine": "cray1"}`, 400},
		{"err_bad_compiler_explain", "/v1/explain", `{"source": "x = 1;", "compiler": "llvm"}`, 400},
		{"err_parse", "/v1/compile", jsonBody("for (i = 0; i < 10; i++) {\n\tA[i] = ;\n}\n", ""), 422},
		{"err_semantic", "/v1/schedule", jsonBody("B[0] = A[5];\n", ""), 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			resp, blob := post(t, ts.URL+tc.endpoint, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body:\n%s", resp.StatusCode, tc.status, blob)
			}
			checkGolden(t, tc.name, blob)
		})
	}
}

// TestContractMethodNotAllowed pins 405 for non-POST verbs.
func TestContractMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d, want 405; body:\n%s", resp.StatusCode, blob)
	}
	if got := resp.Header.Get("Allow"); got != "POST" {
		t.Errorf("Allow = %q, want POST", got)
	}
	checkGolden(t, "err_method_get", blob)
}

// TestContractBodyTooLarge pins 413 for oversized request bodies.
func TestContractBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, blob := post(t, ts.URL+"/v1/compile",
		jsonBody("x = 1; "+strings.Repeat("y = x; ", 64), ""))
	if resp.StatusCode != 413 {
		t.Fatalf("status = %d, want 413; body:\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "err_body_too_large", blob)
}

// TestContractDeadline pins 504: a 1ms budget cannot cover heavySource.
func TestContractDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL+"/v1/schedule", jsonBody(heavySource, `"timeout_ms": 1`))
	if resp.StatusCode != 504 {
		t.Fatalf("status = %d, want 504; body:\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "err_deadline", blob)
}

// TestContractQueueFull pins 429 + Retry-After when the admission queue
// is at capacity: one request holds the single worker, one fills the
// queue, the third is rejected.
func TestContractQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.handle("block", "/v1/block", func(ctx context.Context, req *Request) (any, *apiError) {
		entered <- struct{}{}
		<-release
		return map[string]string{"ok": "true"}, nil
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer close(release)
	// The rejection count is the process-wide server.queue.rejected
	// counter, which other tests' 429s also raise.
	rejectedBefore := s.Stats().QueueRejected

	// t.Fatalf is off-limits in goroutines; collect transport errors.
	bgPost := func(body string) chan error {
		ch := make(chan error, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/block", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
			ch <- err
		}()
		return ch
	}
	done1 := bgPost(`{"source": "x = 1;"}`) // r1: admitted, holds the worker
	<-entered
	done2 := bgPost(`{"source": "y = 2;"}`) // r2: waits in the queue
	waitFor(t, "queued request", func() bool { return s.adm.depth() == 1 })

	resp, blob := post(t, ts.URL+"/v1/block", `{"source": "z = 3;"}`) // r3: rejected
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429; body:\n%s", resp.StatusCode, blob)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	checkGolden(t, "err_queue_full", blob)

	release <- struct{}{}
	release <- struct{}{}
	if err := <-done1; err != nil {
		t.Fatalf("blocked request: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if st := s.Stats(); st.QueueRejected-rejectedBefore != 1 || st.MaxQueueDepth != 1 {
		t.Errorf("stats = %+v (QueueRejected was %d), want one more rejection and MaxQueueDepth=1", st, rejectedBefore)
	}
}

// TestContractDraining pins 503 after Drain.
func TestContractDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, blob := post(t, ts.URL+"/v1/compile", `{"source": "x = 1;"}`)
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503; body:\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "err_draining", blob)

	// readyz reports draining with 503; healthz stays 200.
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != 503 {
		t.Errorf("/readyz status = %d, want 503 while draining", ready.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != 200 {
		t.Errorf("/healthz status = %d, want 200 while draining", health.StatusCode)
	}
}

// TestContractPanic pins 500: a panicking handler answers the request
// (with the request ID for log correlation) and the server survives.
func TestContractPanic(t *testing.T) {
	s := New(Config{})
	s.handle("boom", "/v1/boom", func(ctx context.Context, req *Request) (any, *apiError) {
		panic("handler bug")
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, blob := post(t, ts.URL+"/v1/boom", `{"source": "x = 1;"}`)
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500; body:\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "err_panic", blob)

	// The server still works after the panic.
	resp2, blob2 := post(t, ts.URL+"/v1/compile", jsonBody(dotSource, ""))
	if resp2.StatusCode != 200 {
		t.Fatalf("post-panic status = %d, want 200; body:\n%s", resp2.StatusCode, blob2)
	}
}

// TestHealthz pins the liveness body.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if got, want := string(blob), "{\"status\":\"ok\"}\n"; got != want {
		t.Errorf("body = %q, want %q", got, want)
	}
}

// TestCacheHit checks the response cache: the second identical request
// is a byte-identical hit.
func TestCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := jsonBody(dotSource, "")
	resp1, blob1 := post(t, ts.URL+"/v1/compile", body)
	resp2, blob2 := post(t, ts.URL+"/v1/compile", body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status = %d, %d, want 200, 200", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-SLMS-Cache"); got != "hit" {
		t.Errorf("second request X-SLMS-Cache = %q, want hit", got)
	}
	if !bytes.Equal(blob1, blob2) {
		t.Errorf("cached response differs from original:\n%s\nvs\n%s", blob1, blob2)
	}
	// A different timeout with identical semantics still hits.
	resp3, blob3 := post(t, ts.URL+"/v1/compile", jsonBody(dotSource, `"timeout_ms": 5000`))
	if got := resp3.Header.Get("X-SLMS-Cache"); got != "hit" {
		t.Errorf("timeout-only variant X-SLMS-Cache = %q, want hit", got)
	}
	if !bytes.Equal(blob1, blob3) {
		t.Errorf("timeout-only variant body differs")
	}
	if st := s.Stats(); st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 2/1", st.CacheHits, st.CacheMisses)
	}
	// Different endpoint, same source: its own entry, not a hit.
	resp4, _ := post(t, ts.URL+"/v1/explain", body)
	if got := resp4.Header.Get("X-SLMS-Cache"); got != "miss" {
		t.Errorf("cross-endpoint request X-SLMS-Cache = %q, want miss", got)
	}
}

// TestCacheLRUEviction checks that the cache respects its entry bound.
func TestCacheLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("x = %d;", i)
		resp, blob := post(t, ts.URL+"/v1/compile", jsonBody(src, ""))
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d; body:\n%s", resp.StatusCode, blob)
		}
	}
	if n := s.cache.len(); n != 2 {
		t.Errorf("cache holds %d entries, want 2", n)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
