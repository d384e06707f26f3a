package pipeline

import (
	"testing"

	"slms/internal/machine"
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

// The compile stage keys on an interned configuration: two equal
// machine descriptions at distinct pointers share one artifact, and a
// description that differs in a single latency compiles afresh.
func TestCompileConfigsShareByValue(t *testing.T) {
	prog := source.MustParse(`
		float A[64]; float B[64];
		for (i = 1; i < 64; i++) {
			A[i] = A[i-1] * 0.5 + B[i] * 2.0;
		}
	`)
	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(memo.Reset)

	d1, d2 := machine.IA64Like(), machine.IA64Like()
	if d1 == d2 || *d1 != *d2 {
		t.Fatal("want two equal descriptions at distinct pointers")
	}
	a1, err := CompileForCached(prog, d1, StrongO3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := CompileForCached(prog, d2, StrongO3)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("equal descriptions at distinct pointers compiled twice")
	}
	if h, m := CacheStats(); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}

	d3 := machine.IA64Like()
	d3.Lat.FloatMul++
	a3, err := CompileForCached(prog, d3, StrongO3)
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Error("a description with a different latency shared the artifact")
	}
	if h, m := CacheStats(); h != 1 || m != 2 {
		t.Errorf("after the changed latency: hits=%d misses=%d, want 1/2", h, m)
	}
}

// The compile stage keys on the compiler fields the back end reads:
// weak and strong -O0 (which differ only in name and tags, and neither
// list- nor modulo-schedules) share one artifact, and compilers that
// differ in any field the back end reads compile apart.
func TestCompileKeyIsWhatTheBackEndReads(t *testing.T) {
	prog := source.MustParse(`
		float A[64]; float B[64];
		for (i = 1; i < 64; i++) {
			A[i] = A[i-1] * 0.5 + B[i] * 2.0;
		}
	`)
	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(memo.Reset)
	d := machine.IA64Like()
	compile := func(cc Compiler) *Artifact {
		t.Helper()
		art, err := CompileForCached(prog, d, cc)
		if err != nil {
			t.Fatalf("%+v: %v", cc, err)
		}
		return art
	}
	if compile(WeakNoO3) != compile(StrongNoO3) {
		t.Error("weak and strong -O0 compiled apart")
	}
	renamed := StrongO3
	renamed.Name = "another name"
	if compile(renamed) != compile(StrongO3) {
		t.Error("a compiler's name split the compile stage")
	}
	distinct := []Compiler{
		WeakNoO3,
		WeakO3,
		{Reorder: true, Tags: true},
		{Reorder: true, Window: 4},
		{Reorder: true, Tags: true, Window: 4},
		StrongO3,
		{Reorder: true, IMS: true},
		{IMS: true, Tags: true},
		{IMS: true},
		{Reorder: true, IMS: true, Tags: true, Scheduler: "exact"},
		{Reorder: true, IMS: true, Tags: true, Effort: "quick"},
		{Scheduler: "exact"},
		{Effort: "max"},
	}
	seen := map[*Artifact]int{}
	for i, cc := range distinct {
		art := compile(cc)
		if j, ok := seen[art]; ok {
			t.Errorf("%+v shared the artifact of %+v", cc, distinct[j])
		}
		seen[art] = i
	}
	if _, err := CompileForCached(prog, d, Compiler{Scheduler: "nosuch"}); err == nil {
		t.Error("an unknown scheduler compiled under -O0")
	}
}

// A compile-stage hit allocates nothing: the key holds the interned
// configuration's pointer, not a boxed copy of it.
func TestCompileStageHitDoesNotAllocate(t *testing.T) {
	prog := source.MustParse(compileBenchSrc)
	d := machine.IA64Like()
	memo.SetEnabled(true)
	t.Cleanup(memo.Reset)
	if _, err := CompileForCached(prog, d, StrongO3); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := CompileForCached(prog, d, StrongO3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a compile-stage hit allocates %.1f objects, want 0", allocs)
	}
}
