package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/sim"
	"slms/internal/source"
)

// longProg runs long enough (hundreds of thousands of simulated
// instructions) that a microsecond deadline always lands mid-simulation.
const longProg = `float A[4000]; float B[4000];
for (r = 0; r < 200; r++) {
	for (i = 2; i < 3998; i++) {
		A[i] = A[i-1] + A[i-2] + B[i] * 0.5;
	}
}
`

func parseLong(t *testing.T) *source.Program {
	t.Helper()
	p, err := source.Parse(longProg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunCtxDeadlineAbortsSimulation proves the simulator's cancellation
// checkpoints fire: an already-expired deadline must abort the run with
// an error satisfying errors.Is(err, context.DeadlineExceeded).
func TestRunCtxDeadlineAbortsSimulation(t *testing.T) {
	prog := parseLong(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // let the deadline pass
	_, _, err := RunCtx(ctx, prog, machine.ARM7Like(), WeakO3, interp.NewEnv())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestRunCtxBackgroundMatchesRun pins that a background context changes
// nothing: same cycles, same results as the plain Run path.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	prog := parseLong(t)
	m1, _, err := Run(prog, machine.IA64Like(), WeakO3, interp.NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := RunCtx(context.Background(), prog, machine.IA64Like(), WeakO3, interp.NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles || m1.Instrs != m2.Instrs {
		t.Fatalf("ctx run diverged: %v vs %v", m1, m2)
	}
}

// TestRunExperimentsCtxCancelPropagates covers the experiment driver: a
// canceled context surfaces as a per-option-set error (base leg already
// done) or a base error, never a hang, and the error wraps ctx.Err().
func TestRunExperimentsCtxCancelPropagates(t *testing.T) {
	prog := parseLong(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs, err := RunExperimentsCtx(ctx, prog, machine.ARM7Like(), WeakO3,
		[]core.Options{core.DefaultOptions()}, nil)
	if err == nil && (len(errs) == 0 || errs[0] == nil) {
		t.Fatal("canceled experiment reported no error")
	}
	got := err
	if got == nil {
		got = errs[0]
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", got)
	}
}

// TestCompileForCtxDeadline pins the uncached compile path's checkpoint.
func TestCompileForCtxDeadline(t *testing.T) {
	prog := parseLong(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileForCtx(ctx, prog, machine.IA64Like(), StrongO3); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCanceledRunDoesNotPoisonCache: a request canceled before it
// starts fails with context.Canceled, but the shared compile it started
// runs to completion, so the next CompileForCached of the program hits
// an artifact that simulates exactly like a fresh CompileFor's.
func TestCanceledRunDoesNotPoisonCache(t *testing.T) {
	memo.Reset()
	t.Cleanup(memo.Reset)
	prog := source.MustParse(`float A[64]; float B[64];
for (i = 2; i < 64; i++) {
	A[i] = A[i-1] + A[i-2] + B[i] * 0.5;
}
`)
	d := machine.IA64Like()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunCtx(ctx, prog, d, StrongO3, interp.NewEnv()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunCtx: want context.Canceled, got %v", err)
	}
	cached, err := CompileForCached(prog, d, StrongO3)
	if err != nil {
		t.Fatalf("compile after a canceled request: %v", err)
	}
	if h, m := CacheStats(); h != 1 || m != 1 {
		t.Errorf("compile cache hits=%d misses=%d, want 1/1 (the canceled request filled the entry)", h, m)
	}
	fresh, err := CompileFor(prog, d, StrongO3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := sim.Run(cached.Func, d, cached.Plan, interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := sim.Run(fresh.Func, d, fresh.Plan, interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cycles != mf.Cycles {
		t.Errorf("cached artifact simulates to %d cycles, fresh compile to %d", mc.Cycles, mf.Cycles)
	}
}
