package bench

import (
	"testing"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/memo"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// The cache-reset contract: the five pipeline cache stages (parse,
// transform, verify, lower, compile) live in one cache, and one
// memo.Reset empties every stage and zeroes its registry counters
// together.

const resetKernel = `float A[32]; float B[32];
float t = 0.0; float s = 0.0;
for (i = 0; i < 32; i++) {
	t = A[i] * B[i];
	s = s + t;
}
`

// primeCaches drives one parse, transform, verification and compile
// through the cached entry points twice, so every stage records at least
// one miss and, except lower (which only a compile miss reads), one hit.
func primeCaches(t *testing.T) {
	t.Helper()
	d := machine.IA64Like()
	for i := 0; i < 2; i++ {
		prog, err := source.ParseCached(resetKernel)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		out, results, err := core.TransformProgramCached(prog, core.Options{})
		if err != nil {
			t.Fatalf("transform: %v", err)
		}
		if err := analysis.VerifyTransformed(prog, out, results, core.Options{}); err != nil {
			t.Fatalf("verify: %v", err)
		}
		if _, err := pipeline.CompileForCached(prog, d, pipeline.WeakO3); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
}

// cacheCounts snapshots the hit and miss counters of every pipeline
// cache stage.
type cacheCounts struct {
	parseHits, parseMisses         int64
	transformHits, transformMisses int64
	verifyHits, verifyMisses       int64
	lowerHits, lowerMisses         int64
	compileHits, compileMisses     int64
}

// snapshotCaches reads every stage's counters, the parse, transform and
// compile stages through the stats views their packages export, verify
// and lower through memo.Stats.
func snapshotCaches() cacheCounts {
	var c cacheCounts
	c.parseHits, c.parseMisses = source.ParseCacheStats()
	c.transformHits, c.transformMisses = core.TransformCacheStats()
	c.verifyHits, c.verifyMisses = memo.Stats(memo.Verify)
	c.lowerHits, c.lowerMisses = memo.Stats(memo.Lower)
	c.compileHits, c.compileMisses = pipeline.CacheStats()
	return c
}

// registryCacheCounts reads every stage's counters by their published
// registry names.
func registryCacheCounts() cacheCounts {
	var c cacheCounts
	c.parseHits = obs.CounterName("source.parse.cache.hits").Value()
	c.parseMisses = obs.CounterName("source.parse.cache.misses").Value()
	c.transformHits = obs.CounterName("core.transform.cache.hits").Value()
	c.transformMisses = obs.CounterName("core.transform.cache.misses").Value()
	c.verifyHits = obs.CounterName("analysis.verify.cache.hits").Value()
	c.verifyMisses = obs.CounterName("analysis.verify.cache.misses").Value()
	c.lowerHits = obs.CounterName("pipeline.lower.cache.hits").Value()
	c.lowerMisses = obs.CounterName("pipeline.lower.cache.misses").Value()
	c.compileHits = obs.CounterName("pipeline.compile.cache.hits").Value()
	c.compileMisses = obs.CounterName("pipeline.compile.cache.misses").Value()
	return c
}

// TestResetCachesClearsAllStatGroups: once every stage has counted
// traffic, the stats views read the counters published under the
// registry names, and one memo.Reset zeroes all of them.
func TestResetCachesClearsAllStatGroups(t *testing.T) {
	ResetHarnessState()
	primeCaches(t)

	stats := snapshotCaches()
	if stats.parseMisses == 0 || stats.transformMisses == 0 || stats.verifyMisses == 0 || stats.lowerMisses == 0 || stats.compileMisses == 0 {
		t.Fatalf("priming did not touch every cache: %+v", stats)
	}
	if stats.parseHits == 0 || stats.transformHits == 0 || stats.verifyHits == 0 || stats.compileHits == 0 {
		t.Fatalf("priming did not hit every cache: %+v", stats)
	}
	if reg := registryCacheCounts(); reg != stats {
		t.Fatalf("registry counters %+v diverge from stats views %+v before reset", reg, stats)
	}

	memo.Reset()
	if got := snapshotCaches(); got != (cacheCounts{}) {
		t.Errorf("stats views not all zero after memo.Reset: %+v", got)
	}
	if got := registryCacheCounts(); got != (cacheCounts{}) {
		t.Errorf("registry counters not all zero after memo.Reset: %+v", got)
	}
}

// TestCacheSumsHoldAfterReset: after dirtying every stage, one
// ResetHarnessState (which calls memo.Reset) zeroes every stage's
// counts and drops every entry, so the same work afterwards counts from
// cold — each stage misses once, then hits once (lower, read only by a
// compile miss, misses once) — and the registry counters agree.
func TestCacheSumsHoldAfterReset(t *testing.T) {
	primeCaches(t) // dirty every stage first
	ResetHarnessState()

	if before := snapshotCaches(); before != (cacheCounts{}) {
		t.Fatalf("counts after reset = %+v, want all zero", before)
	}
	primeCaches(t)
	after := snapshotCaches()
	want := cacheCounts{1, 1, 1, 1, 1, 1, 0, 1, 1, 1}
	if after != want {
		t.Errorf("counts after reset+work = %+v, want %+v", after, want)
	}
	if reg := registryCacheCounts(); reg != after {
		t.Errorf("registry counters %+v diverge from stats views %+v after reset+work", reg, after)
	}
}
