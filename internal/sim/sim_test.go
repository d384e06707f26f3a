package sim

import (
	"testing"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/source"
)

func TestCacheDirectHitMiss(t *testing.T) {
	c := newCache(machine.Cache{SizeBytes: 1024, LineBytes: 64, Assoc: 1})
	if c.access(0) {
		t.Error("cold access should miss")
	}
	if !c.access(8) {
		t.Error("same line should hit")
	}
	if !c.access(63) {
		t.Error("same line should hit")
	}
	if c.access(64) {
		t.Error("next line should miss")
	}
	// 1024/64 = 16 sets direct-mapped: address 0 and 1024 conflict.
	if c.access(1024) {
		t.Error("conflicting line should miss")
	}
	if c.access(0) {
		t.Error("evicted line should miss again")
	}
}

func TestCacheLRUAssociativity(t *testing.T) {
	// 2-way, 2 sets of 64B lines: lines 0, 2, 4 map to set 0.
	c := newCache(machine.Cache{SizeBytes: 256, LineBytes: 64, Assoc: 2})
	c.access(0 * 64)
	c.access(2 * 64)
	if !c.access(0 * 64) {
		t.Error("0 should still be resident (2-way)")
	}
	c.access(4 * 64) // evicts LRU = line 2
	if !c.access(0 * 64) {
		t.Error("0 was MRU; must survive")
	}
	if c.access(2 * 64) {
		t.Error("2 should have been evicted")
	}
}

func TestSequentialArrayScanMissesPerLine(t *testing.T) {
	// A sequential scan of N elements (8 bytes each) over L-byte lines
	// must miss exactly ceil(N*8/L) times.
	src := `
		float A[256];
		float s = 0.0;
		for (i = 0; i < 256; i++) { s += A[i]; }
	`
	d := machine.IA64Like() // 64B lines: 8 elements per line
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Predecode(f, d, nil, false).Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.CacheMiss != 256/8 {
		t.Errorf("misses = %d, want %d", m.CacheMiss, 256/8)
	}
	if m.Loads != 256 {
		t.Errorf("loads = %d, want 256", m.Loads)
	}
}

func TestInOrderCyclesScaleWithLatency(t *testing.T) {
	src := `
		float A[64];
		float s = 1.0;
		for (i = 0; i < 64; i++) { s = s * 1.001; }
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	fast := machine.ARM7Like()
	slow := machine.ARM7Like()
	slow.Lat.FloatMul = fast.Lat.FloatMul * 3
	mFast, err := Predecode(f, fast, nil, false).Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Recompile: the block schedule state is per-run but the func is
	// shared; Run doesn't mutate it, so reuse is fine.
	mSlow, err := Predecode(f, slow, nil, false).Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mSlow.Cycles <= mFast.Cycles {
		t.Errorf("tripled fmul latency did not slow the chain: %d vs %d", mSlow.Cycles, mFast.Cycles)
	}
}

func TestScalarsWrittenBack(t *testing.T) {
	src := `
		int a = 3;
		int b = 4;
		int c = a * b + 1;
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv()
	if _, err := Predecode(f, machine.IA64Like(), nil, false).Run(env, 0); err != nil {
		t.Fatal(err)
	}
	if v := env.Scalars["c"]; v.I != 13 {
		t.Errorf("c = %v, want 13", v)
	}
}

func TestPreseededScalarInput(t *testing.T) {
	src := `
		int n;
		int m = n * 2;
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv()
	env.SetScalar("n", interp.IntVal(21))
	if _, err := Predecode(f, machine.IA64Like(), nil, false).Run(env, 0); err != nil {
		t.Fatal(err)
	}
	if v := env.Scalars["m"]; v.I != 42 {
		t.Errorf("m = %v, want 42", v)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	src := `
		float A[4];
		x = A[10];
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Predecode(f, machine.IA64Like(), nil, false).Run(interp.NewEnv(), 0); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestInstrLimit(t *testing.T) {
	src := `
		int i = 0;
		while (true) { i = i + 1; }
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Predecode(f, machine.IA64Like(), nil, false).Run(interp.NewEnv(), 1000); err == nil {
		t.Error("expected instruction-limit error")
	}
}

func TestEnergyAccumulates(t *testing.T) {
	src := `
		float A[64];
		for (i = 0; i < 64; i++) { A[i] = i * 0.5; }
	`
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	d := machine.ARM7Like()
	m, err := Predecode(f, d, nil, false).Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// At least static leakage per cycle plus per-op energy.
	if m.Energy < d.Energy.Static*float64(m.Cycles) {
		t.Errorf("energy %f below static floor %f", m.Energy, d.Energy.Static*float64(m.Cycles))
	}
	if m.ExecCounts == nil || len(m.ExecCounts) != len(f.Blocks) {
		t.Error("exec counts missing")
	}
}
