package bench

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sim"
	"slms/internal/source"
)

// goldenPath holds the harness's full output: every figure table, then
// CyclesTable. It is exactly the stdout of cmd/slmsbench with no flags;
// after an intended change to figures or cycles, regenerate it from the
// repository root with
//
//	go run ./cmd/slmsbench > internal/bench/testdata/figures.golden
const goldenPath = "testdata/figures.golden"

// TestHarnessDeterminism pins the harness output to the golden file,
// byte for byte, from two renders that share no state: the fast path
// (figures and their rows fanned out over the shared pool, every cache
// and the measurement memo in use) and a fully serial one (one pool
// worker, the artifact and transform caches disabled). Each render
// starts from cold.
func TestHarnessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full figure suite twice")
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		ResetHarnessState()
		figs, err := AllFigures()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range figs {
			b.WriteString(f.Table() + "\n")
		}
		return b.String() + CyclesTable()
	}

	fast := render()
	// A from-cold full run must have done real work in every cache layer.
	c := snapshotCaches()
	for _, layer := range []struct {
		name         string
		hits, misses int64
	}{
		{"parse", c.parseHits, c.parseMisses},
		{"transform", c.transformHits, c.transformMisses},
		{"compile", c.compileHits, c.compileMisses},
	} {
		if layer.hits+layer.misses == 0 {
			t.Errorf("cache %s saw no traffic over a full figure run", layer.name)
		}
	}

	oldWorkers := Workers()
	SetWorkers(1)
	pipeline.SetCacheEnabled(false)
	core.SetTransformCacheEnabled(false)
	defer func() {
		SetWorkers(oldWorkers)
		pipeline.SetCacheEnabled(true)
		core.SetTransformCacheEnabled(true)
		ResetHarnessState()
	}()
	serial := render()

	for _, r := range []struct{ name, got string }{{"fast", fast}, {"serial", serial}} {
		if r.got != string(golden) {
			t.Errorf("%s render differs from %s at %s", r.name, goldenPath, firstDiff(string(golden), r.got))
		}
	}
}

// firstDiff locates the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, wl, gl)
		}
	}
	return "no line (lengths differ)"
}

// TestCachedArtifactMetricsIdentical checks that simulating a cached
// artifact produces exactly the metrics of a fresh compilation — the
// cache must be semantically invisible, execution counts included.
func TestCachedArtifactMetricsIdentical(t *testing.T) {
	d := machine.IA64Like()
	for _, name := range []string{"kernel1", "kernel8", "daxpy"} {
		k := Lookup(name)
		prog := source.MustParseCached(k.Source)
		for _, cc := range []pipeline.Compiler{pipeline.WeakO3, pipeline.StrongO3, pipeline.WeakNoO3} {
			fresh, err := pipeline.CompileFor(prog, d, cc)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cc.Name, err)
			}
			cached, err := pipeline.CompileForCached(prog, d, cc)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cc.Name, err)
			}
			envF := newSeededEnv(*k)
			mFresh, err := sim.Run(fresh.Func, d, fresh.Plan, envF, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cc.Name, err)
			}
			envC := newSeededEnv(*k)
			mCached, err := sim.Run(cached.Func, d, cached.Plan, envC, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cc.Name, err)
			}
			if !reflect.DeepEqual(mFresh, mCached) {
				t.Errorf("%s/%s: cached artifact metrics differ\nfresh:  %+v\ncached: %+v", name, cc.Name, mFresh, mCached)
			}
		}
	}
}

// TestRepeatedSimulationOfSharedArtifact checks artifact immutability:
// simulating one artifact many times (as concurrent harness workers do)
// keeps yielding identical metrics.
func TestRepeatedSimulationOfSharedArtifact(t *testing.T) {
	k := Lookup("kernel10") // spill-heavy: exercises spill-slot addressing
	prog := source.MustParseCached(k.Source)
	d := machine.PentiumLike()
	art, err := pipeline.CompileForCached(prog, d, pipeline.WeakO3)
	if err != nil {
		t.Fatal(err)
	}
	var first *sim.Metrics
	for i := 0; i < 3; i++ {
		env := newSeededEnv(*k)
		m, err := sim.Run(art.Func, d, art.Plan, env, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = m
		} else if !reflect.DeepEqual(first, m) {
			t.Fatalf("run %d metrics differ from run 0:\nfirst: %+v\nthis:  %+v", i, first, m)
		}
	}
}
