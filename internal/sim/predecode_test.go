package sim

import (
	"fmt"
	"sync"
	"testing"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/source"
)

const scanSrc = `
	float A[256];
	float s = 0.0;
	for (i = 0; i < 256; i++) { s += A[i]; }
`

// TestPredecodedReuse pins the repeated-simulation contract: one
// Predecode serves many runs, each from a cold pooled state, and every
// run's metrics are identical to a fresh one-shot simulation —
// including the data-cache counters, which a dirty pooled cache would
// skew first.
func TestPredecodedReuse(t *testing.T) {
	f, err := backend.Compile(source.MustParse(scanSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := machine.IA64Like()
	want, err := PredecodeIsolated(f, d, nil, false).Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}

	pd := Predecode(f, d, nil, false)
	for i := 0; i < 5; i++ {
		m, err := pd.Run(interp.NewEnv(), 0)
		if err != nil {
			t.Fatalf("reuse run %d: %v", i, err)
		}
		if m.Cycles != want.Cycles || m.CacheMiss != want.CacheMiss ||
			m.Loads != want.Loads || m.Stores != want.Stores || m.Instrs != want.Instrs {
			t.Fatalf("reuse run %d diverged: got cycles=%d miss=%d loads=%d, want cycles=%d miss=%d loads=%d",
				i, m.Cycles, m.CacheMiss, m.Loads, want.Cycles, want.CacheMiss, want.Loads)
		}
	}
}

// TestPredecodedConcurrentRuns runs one Predecoded from many goroutines
// (the bench pool and slmsd's request handlers do exactly this through
// a cached artifact's predecode slots); under -race this verifies the
// immutable decode tables really are immutable and the pooled state
// really is per-run.
func TestPredecodedConcurrentRuns(t *testing.T) {
	f, err := backend.Compile(source.MustParse(scanSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := machine.IA64Like()
	pd := Predecode(f, d, nil, false)
	want, err := pd.Run(interp.NewEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				m, err := pd.Run(interp.NewEnv(), 0)
				if err != nil {
					errs[g] = err
					return
				}
				if m.Cycles != want.Cycles {
					errs[g] = fmt.Errorf("goroutine %d run %d: cycles %d, want %d", g, i, m.Cycles, want.Cycles)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestPredecodedProfileExactSum verifies the profiler's exact-sum
// invariant survives pooled, repeated runs: every run's per-cause
// profile totals exactly its cycle count, with no leakage between
// pooled states.
func TestPredecodedProfileExactSum(t *testing.T) {
	f, err := backend.Compile(source.MustParse(scanSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := machine.IA64Like()
	pd := Predecode(f, d, nil, true)
	for i := 0; i < 3; i++ {
		m, err := pd.Run(interp.NewEnv(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Profile == nil {
			t.Fatal("profiling run produced no profile")
		}
		tot := m.Profile.Totals()
		if got := tot.Total(); got != m.Cycles {
			t.Errorf("run %d: profile totals %d cycles, run took %d (exact-sum invariant broken)",
				i, got, m.Cycles)
		}
	}
}

// TestPredecodedRunsInItsMode: a predecode's mode is its runs' mode.
// With nothing else set, a profiled predecode returns an exact-sum
// profile and a plain one returns none, whichever ran first.
func TestPredecodedRunsInItsMode(t *testing.T) {
	f, err := backend.Compile(source.MustParse(scanSrc))
	if err != nil {
		t.Fatal(err)
	}
	d := machine.IA64Like()
	for _, profiled := range []bool{true, false, true} {
		m, err := Predecode(f, d, nil, profiled).Run(interp.NewEnv(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !profiled {
			if m.Profile != nil {
				t.Fatal("a plain predecode's run returned a profile")
			}
			continue
		}
		if m.Profile == nil {
			t.Fatal("a profiled predecode's run returned no profile")
		}
		if tot := m.Profile.Totals(); tot.Total() != m.Cycles {
			t.Errorf("profile totals %d, want %d", tot.Total(), m.Cycles)
		}
	}
}
