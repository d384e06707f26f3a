package bench

import (
	"testing"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// The cache-reset contract: the three caching layers (parse, transform,
// compile) clear through one obs.ResetCaches call, and each layer's
// reset zeroes its stat atomics AND its mirrored registry counters
// together. Before the registry existed, a caller that reset the caches
// but not the counters (or vice versa) left the two views disagreeing.

const resetKernel = `float A[32]; float B[32];
float t = 0.0; float s = 0.0;
for (i = 0; i < 32; i++) {
	t = A[i] * B[i];
	s = s + t;
}
`

// primeCaches drives one parse, transform and compile through the
// cached paths twice, guaranteeing every layer records at least one
// miss and one hit.
func primeCaches(t *testing.T) {
	t.Helper()
	d := machine.IA64Like()
	for i := 0; i < 2; i++ {
		prog, err := source.ParseCached(resetKernel)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, _, err := core.TransformProgramCached(prog, core.Options{}); err != nil {
			t.Fatalf("transform: %v", err)
		}
		if _, err := pipeline.CompileForCached(prog, d, pipeline.WeakO3); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
}

// cacheCounts snapshots the cumulative counters of every caching layer
// under the harness: source parse, core transform, pipeline artifact
// ("compile").
type cacheCounts struct {
	parseHits, parseMisses         int64
	transformHits, transformMisses int64
	compileHits, compileMisses     int64
}

// snapshotCaches reads the stat atomics of all three layers.
func snapshotCaches() cacheCounts {
	var c cacheCounts
	c.parseHits, c.parseMisses = source.ParseCacheStats()
	c.transformHits, c.transformMisses = core.TransformCacheStats()
	c.compileHits, c.compileMisses = pipeline.CacheStats()
	return c
}

// registryCacheCounts reads the mirrored registry counters for all
// three layers.
func registryCacheCounts() cacheCounts {
	var c cacheCounts
	c.parseHits = obs.CounterName("source.parse.cache.hits").Value()
	c.parseMisses = obs.CounterName("source.parse.cache.misses").Value()
	c.transformHits = obs.CounterName("core.transform.cache.hits").Value()
	c.transformMisses = obs.CounterName("core.transform.cache.misses").Value()
	c.compileHits = obs.CounterName("pipeline.compile.cache.hits").Value()
	c.compileMisses = obs.CounterName("pipeline.compile.cache.misses").Value()
	return c
}

func TestResetCachesClearsAllStatGroups(t *testing.T) {
	ResetHarnessState()
	primeCaches(t)

	stats := snapshotCaches()
	if stats.parseMisses == 0 || stats.transformMisses == 0 || stats.compileMisses == 0 {
		t.Fatalf("priming did not touch every cache: %+v", stats)
	}
	if stats.parseHits == 0 || stats.transformHits == 0 || stats.compileHits == 0 {
		t.Fatalf("priming did not hit every cache: %+v", stats)
	}
	if reg := registryCacheCounts(); reg != stats {
		t.Fatalf("registry counters %+v diverge from stat atomics %+v before reset", reg, stats)
	}

	obs.ResetCaches()
	if got := snapshotCaches(); got != (cacheCounts{}) {
		t.Errorf("stat atomics not all zero after ResetCaches: %+v", got)
	}
	if got := registryCacheCounts(); got != (cacheCounts{}) {
		t.Errorf("registry counters not all zero after ResetCaches: %+v", got)
	}
}

// TestCacheSumsHoldAfterReset proves the two views stay in step across
// a reset: after ResetHarnessState plus new work, the stat atomics count
// exactly that work and the registry counters agree with them — no
// stale counts from before the reset leak into either.
func TestCacheSumsHoldAfterReset(t *testing.T) {
	primeCaches(t) // dirty every layer first
	ResetHarnessState()

	if before := snapshotCaches(); before != (cacheCounts{}) {
		t.Fatalf("snapshot after reset not zero: %+v", before)
	}
	primeCaches(t)
	after := snapshotCaches()
	// One priming pass from cold: each layer misses once, then hits once.
	want := cacheCounts{1, 1, 1, 1, 1, 1}
	if after != want {
		t.Errorf("stat atomics after reset+work = %+v, want %+v", after, want)
	}
	if reg := registryCacheCounts(); reg != after {
		t.Errorf("registry counters %+v diverge from stat atomics %+v after reset+work", reg, after)
	}
}
