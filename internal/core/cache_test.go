package core

import (
	"testing"

	"slms/internal/memo"
	"slms/internal/source"
)

// The transform cache's hit/miss counters must match what actually ran:
// one miss per distinct (program, options) pair, one hit per repeat,
// and zero of either when the cache is disabled (forced recompute).
func TestTransformCacheAccounting(t *testing.T) {
	const src = `
		float A[64]; float B[64]; float C[64];
		for (i = 0; i < 64; i++) {
			A[i] = B[i] + C[i];
			C[i] = A[i] * 0.5;
		}
	`
	prog := source.MustParse(src)

	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(func() { memo.SetEnabled(true); memo.Reset() })

	const repeats = 4
	for i := 0; i < repeats; i++ {
		if _, _, err := TransformProgramCached(prog, DefaultOptions()); err != nil {
			t.Fatalf("transform %d: %v", i, err)
		}
	}
	hits, misses := TransformCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one distinct transform)", misses)
	}
	if hits != repeats-1 {
		t.Errorf("hits = %d, want %d", hits, repeats-1)
	}

	// Different options are a different cache key.
	opts := DefaultOptions()
	opts.Filter = false
	if _, _, err := TransformProgramCached(prog, opts); err != nil {
		t.Fatal(err)
	}
	if h, m := TransformCacheStats(); m != 2 || h != repeats-1 {
		t.Errorf("after options change: hits=%d misses=%d, want hits=%d misses=2",
			h, m, repeats-1)
	}

	// Forced recompute: disabling drops the cache and counts nothing.
	memo.SetEnabled(false)
	for i := 0; i < repeats; i++ {
		if _, _, err := TransformProgramCached(prog, DefaultOptions()); err != nil {
			t.Fatalf("uncached transform %d: %v", i, err)
		}
	}
	if h, m := TransformCacheStats(); h != 0 || m != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d, want 0/0", h, m)
	}

	// The cached and uncached transforms must agree (the memo is
	// observationally transparent).
	memo.SetEnabled(true)
	cachedOut, cachedResults, err := TransformProgramCached(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	memo.SetEnabled(false)
	plainOut, plainResults, err := TransformProgram(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := source.Print(cachedOut), source.Print(plainOut); got != want {
		t.Errorf("cached transform output differs from uncached:\n%s\n----\n%s", got, want)
	}
	if len(cachedResults) != len(plainResults) {
		t.Fatalf("result count differs: cached %d, uncached %d",
			len(cachedResults), len(plainResults))
	}
	for i := range cachedResults {
		if cachedResults[i].Applied != plainResults[i].Applied ||
			cachedResults[i].Decision.Code != plainResults[i].Decision.Code {
			t.Errorf("result %d differs: cached applied=%v code=%s, uncached applied=%v code=%s",
				i, cachedResults[i].Applied, cachedResults[i].Decision.Code,
				plainResults[i].Applied, plainResults[i].Decision.Code)
		}
	}
}
