package pipeline

import (
	"context"
	"testing"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/source"
)

// TestVerifyGate runs a transformable program through RunExperimentsCtx
// without and with modes.Verify. Only with it is the verifier's cache
// stage consulted, so the transform is proved (or differential-validated)
// before compilation, and a correct transform passes the gate.
func TestVerifyGate(t *testing.T) {
	prog, err := source.Parse(`float A[120]; float B[120];
float t = 0.0;
for (i = 1; i < 100; i++) { t = A[i-1]; B[i] = B[i] + t; }
`)
	if err != nil {
		t.Fatal(err)
	}
	// consulted measures prog in modes and returns how often the
	// verify stage was looked up.
	consulted := func(modes Modes) int64 {
		t.Helper()
		h0, m0 := memo.Stats(memo.Verify)
		outs, errs, err := RunExperimentsCtx(context.Background(), prog, machine.IA64Like(), StrongO3,
			[]core.Options{core.DefaultOptions()}, nil, modes)
		if err != nil {
			t.Fatal(err)
		}
		if errs[0] != nil {
			t.Fatalf("experiment with %+v failed: %v", modes, errs[0])
		}
		if outs[0] == nil || !outs[0].Applied {
			t.Fatal("SLMS was not applied, gate test is vacuous")
		}
		h1, m1 := memo.Stats(memo.Verify)
		return h1 + m1 - h0 - m0
	}
	if n := consulted(Modes{}); n != 0 {
		t.Errorf("without Verify the verify stage was consulted %d times, want 0", n)
	}
	if n := consulted(Modes{Verify: true}); n == 0 {
		t.Error("with Verify the verify stage was never consulted")
	}
}
