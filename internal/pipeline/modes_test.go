package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"slms/internal/sim"
)

// TestConcurrentMeasureModesDoNotLeak runs profiled and plain Measure
// calls at once over one cached program and target, so every call
// shares one artifact per leg and its two predecode slots. Each call
// runs in its own mode: a plain outcome carries no profile, a profiled
// one carries exact-sum profiles on both legs.
func TestConcurrentMeasureModesDoNotLeak(t *testing.T) {
	r := &Request{Source: `float A[120]; float B[120];
float t = 0.0;
for (i = 1; i < 100; i++) { t = A[i-1]; B[i] = B[i] + t; }
`, Machine: "ia64", Compiler: "strong"}
	// Cache the artifacts first, so every concurrent call shares them.
	first, err := Measure(context.Background(), r, Modes{})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Applied {
		t.Fatal("SLMS was not applied: the test needs both legs")
	}

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			modes := Modes{Profile: g%2 == 1}
			for range 4 {
				o, err := Measure(context.Background(), r, modes)
				if err == nil {
					err = checkModes(o, first, modes)
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d, %+v: %w", g, modes, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// checkModes checks that o shares first's artifacts and that each of
// its legs is profiled exactly when modes asks for it.
func checkModes(o, first *Outcome, modes Modes) error {
	if o.BaseArt != first.BaseArt || o.SLMSArt != first.SLMSArt {
		return fmt.Errorf("the measurement did not share the cached artifacts")
	}
	for _, leg := range []*sim.Metrics{o.Base, o.SLMS} {
		if !modes.Profile {
			if leg.Profile != nil {
				return fmt.Errorf("a plain measurement's leg carries a profile")
			}
			continue
		}
		if leg.Profile == nil {
			return fmt.Errorf("a profiled measurement's leg carries no profile")
		}
		if tot := leg.Profile.Totals(); tot.Total() != leg.Cycles {
			return fmt.Errorf("profile totals %d cycles, the leg ran %d", tot.Total(), leg.Cycles)
		}
	}
	return nil
}
