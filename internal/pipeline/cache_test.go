package pipeline

import (
	"testing"

	"slms/internal/memo"
	"slms/internal/source"
)

// The compile cache's hit/miss accounting must agree with what actually
// happened: misses equal the number of distinct (program, machine,
// compiler) compilations, hits the number of repeats, and a
// forced-recompute run (cache disabled) performs exactly as many
// compilations as the cache reported as misses.
func TestCompileCacheAccounting(t *testing.T) {
	const src = `
		float A[64]; float B[64];
		for (i = 0; i < 64; i++) {
			A[i] = B[i] * 2.0 + 1.0;
		}
	`
	prog := source.MustParse(src)
	d := allMachines()[0]
	cc := allCompilers()[0]

	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(func() { memo.SetEnabled(true); memo.Reset() })

	const repeats = 5
	for i := 0; i < repeats; i++ {
		if _, err := CompileForCached(prog, d, cc); err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
	}
	hits, misses := CacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one distinct compilation)", misses)
	}
	if hits != repeats-1 {
		t.Errorf("hits = %d, want %d", hits, repeats-1)
	}

	// A second machine/compiler cell is a new compilation, not a hit.
	if _, err := CompileForCached(prog, allMachines()[1], cc); err != nil {
		t.Fatal(err)
	}
	hits, misses = CacheStats()
	if misses != 2 || hits != repeats-1 {
		t.Errorf("after second cell: hits=%d misses=%d, want hits=%d misses=2",
			hits, misses, repeats-1)
	}

	// Forced recompute: with the cache disabled every call misses the
	// memo entirely and the counters stay zeroed — the cached run's miss
	// count (2) is exactly the number of compilations this loop redoes
	// per distinct cell.
	memo.SetEnabled(false)
	for i := 0; i < repeats; i++ {
		if _, err := CompileForCached(prog, d, cc); err != nil {
			t.Fatalf("uncached compile %d: %v", i, err)
		}
	}
	if h, m := CacheStats(); h != 0 || m != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d, want 0/0", h, m)
	}

	// Re-enabling starts cold: the first compile is a miss again.
	memo.SetEnabled(true)
	if _, err := CompileForCached(prog, d, cc); err != nil {
		t.Fatal(err)
	}
	if h, m := CacheStats(); h != 0 || m != 1 {
		t.Errorf("after re-enable: hits=%d misses=%d, want 0/1", h, m)
	}
}
