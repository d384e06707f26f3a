package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzRequestDecode throws arbitrary bytes at the request decoder and
// checks its contract: it never panics, it either returns a usable
// request or a 4xx apiError, and everything derived from an accepted
// request (core options, target resolution, deadline, fingerprint) is
// total and deterministic. Seeds cover the real corpus — every kernel
// in internal/core/testdata wrapped into a request body — plus the
// error classes the contract tests pin.
func FuzzRequestDecode(f *testing.F) {
	kernels, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.c"))
	if err != nil || len(kernels) == 0 {
		f.Fatalf("loading seed corpus: %v (found %d kernels)", err, len(kernels))
	}
	for _, path := range kernels {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(jsonBody(string(src), ""))
		f.Add(jsonBody(string(src), `"machine": "power4", "compiler": "strong", "timeout_ms": 500`))
		f.Add(jsonBody(string(src), `"options": {"expansion": "array", "threshold": 0.5}`))
	}
	f.Add(`{"source": "x = 1;", "paper": true, "o0": true}`)
	f.Add(`{"source": ""}`)
	f.Add(`{"source": 42}`)
	f.Add(`{"source": "x = 1;", "sauce": true}`)
	f.Add(`{"source": "x = 1;"} trailing`)
	f.Add(`{"source": "x = 1;", "timeout_ms": -1}`)
	f.Add(`{"source": "x = 1;", "options": {"expansion": "sideways"}}`)
	f.Add(`{"source": "x = 1;", "options": {"threshold": 2.0}}`)
	f.Add(`{"source": "x = 1;", "machine": "cray1"}`)
	f.Add(`{"source": "x = 1;", "compiler": "llvm", "o0": true}`)
	f.Add(`[]`)
	f.Add(`null`)
	f.Add("")
	f.Add("\x00\x01\x02")
	f.Add(strings.Repeat("9", 1024))

	f.Fuzz(func(t *testing.T, body string) {
		req, aerr := decodeRequestBytes([]byte(body), 1<<20, false)
		if aerr != nil {
			if req != nil {
				t.Fatalf("decodeRequest returned both a request and an error")
			}
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("decode error status = %d, want 4xx", aerr.status)
			}
			if aerr.code == "" || aerr.msg == "" {
				t.Fatalf("decode error missing code/message: %+v", aerr)
			}
			return
		}
		if strings.TrimSpace(req.Source) == "" {
			t.Fatalf("accepted request with empty source")
		}
		// Everything derived from an accepted request must be total:
		// Validate ran at decode, so resolving the target never fails.
		req.CoreOptions()
		if _, _, err := req.Target(); err != nil {
			t.Fatalf("accepted request's Target() failed: %v", err)
		}
		if _, aerr := requestDeadline(req, time.Second, time.Minute); aerr != nil && aerr.status != 400 {
			t.Fatalf("requestDeadline status = %d, want 400", aerr.status)
		}
		// The cache key must be deterministic and endpoint-scoped.
		fp1 := req.Fingerprint("compile")
		fp2 := req.Fingerprint("compile")
		if fp1 != fp2 {
			t.Fatalf("fingerprint not deterministic: %s vs %s", fp1, fp2)
		}
		if fp1 == req.Fingerprint("schedule") {
			t.Fatalf("fingerprint ignores the endpoint")
		}
		// The deadline must not leak into the key.
		canon := *req
		canon.TimeoutMS = req.TimeoutMS + 1000
		if canon.Fingerprint("compile") != fp1 {
			t.Fatalf("fingerprint depends on timeout_ms")
		}
	})
}

// TestFuzzSeedsDecode sanity-checks that the seed kernels decode as
// valid requests (guards the corpus against drift).
func TestFuzzSeedsDecode(t *testing.T) {
	kernels, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.c"))
	if err != nil || len(kernels) == 0 {
		t.Fatalf("loading corpus: %v (%d kernels)", err, len(kernels))
	}
	for _, path := range kernels {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req, aerr := decodeRequestBytes([]byte(jsonBody(string(src), "")), 1<<20, false)
		if aerr != nil {
			t.Errorf("%s: corpus kernel rejected: %v", path, aerr.msg)
			continue
		}
		if req.Source != string(src) {
			t.Errorf("%s: source did not round-trip through JSON quoting", path)
		}
	}
}
