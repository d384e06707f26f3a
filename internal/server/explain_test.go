package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/memo"
	"slms/internal/obs"
)

// The explain cache contract: /v1/explain transforms a program once,
// through the pipeline cache's transform stage under the request span,
// and lints that shared output, whose verdicts the verify stage keeps.
// Every test here turns the response cache off, so a repeat reaches the
// handler the way an evicted repeat does.

// explainLoopSource is a one-loop program SLMS applies, compiled by no
// other test.
const explainLoopSource = `float X[48]; float Y[48];
float p = 0.0; float q = 0.25;
for (i = 0; i < 48; i++) {
	p = X[i] * Y[i];
	q = q + p;
}
`

// resetMemo empties the pipeline cache for the test and again after it.
func resetMemo(t *testing.T) {
	t.Helper()
	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(func() { memo.SetEnabled(true); memo.Reset() })
}

// explainOK posts body to /v1/explain and returns the 200 reply.
func explainOK(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, blob := post(t, url+"/v1/explain", body)
	if resp.StatusCode != 200 {
		t.Fatalf("explain = %d, want 200; body:\n%s", resp.StatusCode, blob)
	}
	return blob
}

// TestExplainCountsDecisionsOncePerTransform: slms.decisions.<verdict>
// counts each loop decision once per transform performed, as on
// /v1/compile and /v1/schedule. A fresh explain of a one-loop program
// transforms it once (one accept); a repeat finds the transform cached
// and counts nothing.
func TestExplainCountsDecisionsOncePerTransform(t *testing.T) {
	resetMemo(t)
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	accept := obs.CounterName("slms.decisions.accept")
	body := jsonBody(explainLoopSource, "")
	for i, want := range []int64{1, 0} {
		before := accept.Value()
		explainOK(t, ts.URL, body)
		if got := accept.Value() - before; got != want {
			t.Errorf("explain %d: slms.decisions.accept +%d, want +%d", i+1, got, want)
		}
	}
}

// TestExplainBodiesAtVerifyHit: for every corpus kernel, a fresh
// explain makes one transform-stage miss and one verify-stage miss, a
// repeat one hit in each, and both reply with the bytes of an uncached
// explain.
func TestExplainBodiesAtVerifyHit(t *testing.T) {
	resetMemo(t)
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	kernels := bench.Kernels()
	uncached := make([][]byte, len(kernels))
	memo.SetEnabled(false)
	for i, k := range kernels {
		uncached[i] = explainOK(t, ts.URL, jsonBody(k.Source, ""))
	}
	memo.SetEnabled(true)
	for i, k := range kernels {
		for _, want := range []struct {
			what         string
			hits, misses int64
		}{{"fresh", 0, 1}, {"repeat", 1, 0}} {
			th0, tm0 := core.TransformCacheStats()
			vh0, vm0 := memo.Stats(memo.Verify)
			got := explainOK(t, ts.URL, jsonBody(k.Source, ""))
			th1, tm1 := core.TransformCacheStats()
			vh1, vm1 := memo.Stats(memo.Verify)
			if th1-th0 != want.hits || tm1-tm0 != want.misses || vh1-vh0 != want.hits || vm1-vm0 != want.misses {
				t.Errorf("%s %s: transform +%d/+%d, verify +%d/+%d hits/misses; want +%d/+%d in each",
					k.Name, want.what, th1-th0, tm1-tm0, vh1-vh0, vm1-vm0, want.hits, want.misses)
			}
			if !bytes.Equal(got, uncached[i]) {
				t.Errorf("%s %s: body differs from the uncached explain:\n%s\nvs\n%s", k.Name, want.what, got, uncached[i])
			}
		}
	}
}

// TestConcurrentExplainsVerifyOnce: sixteen concurrent explains of one
// new program, each spelled differently so the response cache's
// singleflight cannot merge them, prove its transform once.
func TestConcurrentExplainsVerifyOnce(t *testing.T) {
	resetMemo(t)
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	const clients = 16
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Trailing blanks change the request, not the parsed program.
			body := jsonBody(explainLoopSource+strings.Repeat(" ", i), "")
			resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if h, m := memo.Stats(memo.Verify); h != clients-1 || m != 1 {
		t.Errorf("verify stage: %d hits, %d misses; want %d hits and one miss", h, m, clients-1)
	}
	if _, m := core.TransformCacheStats(); m != 1 {
		t.Errorf("transform stage: %d misses, want one", m)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("client %d's body differs from client 0's", i)
		}
	}
}
