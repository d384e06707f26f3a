package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/pipeline"
)

// A panicking worker must not crash the harness: the panic surfaces as
// that item's error, named after the kernel, and every other item still
// runs to completion.
func TestParallelMapPanicBecomesError(t *testing.T) {
	items := []Kernel{{Name: "matmul"}, {Name: "boom"}, {Name: "fir"}}
	var ran atomic.Int32
	out, err := parallelMap(items, func(k Kernel) (string, error) {
		ran.Add(1)
		if k.Name == "boom" {
			panic("index out of range")
		}
		return k.Name, nil
	})
	if err == nil {
		t.Fatal("want an error from the panicking worker, got nil")
	}
	if out != nil {
		t.Errorf("want nil results on error, got %v", out)
	}
	if !strings.Contains(err.Error(), "kernel boom") {
		t.Errorf("error %q does not name the panicking kernel", err)
	}
	if !strings.Contains(err.Error(), "index out of range") {
		t.Errorf("error %q does not carry the panic value", err)
	}
	if got := ran.Load(); got != int32(len(items)) {
		t.Errorf("%d of %d items ran; a panic must not stop the others", got, len(items))
	}
}

// Panics and ordinary errors share the deterministic first-in-input-
// order error selection.
func TestParallelMapPanicOrdering(t *testing.T) {
	items := []*Kernel{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	_, err := parallelMap(items, func(k *Kernel) (int, error) {
		switch k.Name {
		case "a":
			return 0, nil
		case "b":
			panic("worker bug")
		default:
			return 0, errors.New("plain failure")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "kernel b") {
		t.Fatalf("want the earliest failure (panic on kernel b) to win, got %v", err)
	}
}

// Non-kernel work items are still identified in panic reports.
func TestParallelMapPanicNamesPlainItems(t *testing.T) {
	_, err := parallelMap([]int{1, 2}, func(n int) (int, error) {
		if n == 2 {
			panic("bad item")
		}
		return n, nil
	})
	if err == nil || !strings.Contains(err.Error(), "on 2") {
		t.Fatalf("want panic report naming item 2, got %v", err)
	}
}

// The harness's modes reach every SLMS measurement it makes: the
// memoized figure cells, whose memo keys on the modes, and the cases,
// census and ablations, which run through runExperiment.
func TestHarnessModesReachEveryMeasurement(t *testing.T) {
	k := *Lookup("kernel8")
	d := machine.IA64Like()
	plain, err := measureCached(k, d, pipeline.WeakO3)
	if err != nil {
		t.Fatal(err)
	}
	SetModes(pipeline.Modes{Profile: true, Verify: true})
	defer SetModes(pipeline.Modes{})
	profiled, err := measureCached(k, d, pipeline.WeakO3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Base.Profile != nil || profiled.Base.Profile == nil {
		t.Errorf("memoized cell profiles: plain %v, profiled %v; the memo must key on the modes",
			plain.Base.Profile != nil, profiled.Base.Profile != nil)
	}
	h0, m0 := memo.Stats(memo.Verify)
	out, err := measureKernel8CaseA(k, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Base.Profile == nil || out.SLMS.Profile == nil {
		t.Error("Case A ran without the harness's Profile mode")
	}
	if h1, m1 := memo.Stats(memo.Verify); h1+m1 == h0+m0 {
		t.Error("Case A ran without the harness's Verify mode")
	}
}
