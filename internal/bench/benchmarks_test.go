package bench

import (
	"testing"

	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sim"
	"slms/internal/source"
)

// BenchmarkSimRun measures the simulator hot loop on a representative
// kernel (per-iteration environment seeding is included — it is part of
// every real measurement too).
func BenchmarkSimRun(b *testing.B) {
	k := Lookup("kernel1")
	prog := source.MustParseCached(k.Source)
	d := machine.IA64Like()
	art, err := pipeline.CompileForCached(prog, d, pipeline.StrongO3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := newSeededEnv(*k)
		if _, err := sim.Predecode(art.Func, d, art.Plan, false).Run(env, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllFigures measures a full cold harness run: caches and
// memos are dropped every iteration so each one re-measures the whole
// figure suite.
func BenchmarkAllFigures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ResetHarnessState()
		if _, err := AllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllFiguresWarm measures the steady-state harness with all
// caches primed — the incremental cost of regenerating every figure.
func BenchmarkAllFiguresWarm(b *testing.B) {
	if _, err := AllFigures(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllFigures(); err != nil {
			b.Fatal(err)
		}
	}
}
