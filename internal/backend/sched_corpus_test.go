package backend_test

import (
	"slices"
	"testing"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// Every block the corpus kernels lower to — untransformed and after SLMS
// with MVE and with scalar expansion, register-allocated for each of
// the four machines — must schedule exactly as under the reference
// scheduler, with tags on and off and at every window the compilers use.
func TestListScheduleMatchesReferenceOnCorpus(t *testing.T) {
	machines := []*machine.Desc{machine.IA64Like(), machine.Power4Like(), machine.PentiumLike(), machine.ARM7Like()}
	scalar := core.DefaultOptions()
	scalar.Expansion = core.ExpandScalar
	blocks, maxN := 0, 0
	for _, k := range bench.KernelsExtended() {
		p, err := source.Parse(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		progs := []*source.Program{p}
		for _, opts := range []core.Options{core.DefaultOptions(), scalar} {
			if q, _, err := core.TransformProgram(p, opts); err == nil {
				progs = append(progs, q)
			}
		}
		for _, q := range progs {
			for _, d := range machines {
				// A non-reordering compile leaves the blocks as register
				// allocation made them: what ListCycles sees.
				art, err := pipeline.CompileFor(q, d, pipeline.StrongNoO3)
				if err != nil {
					t.Fatalf("%s on %s: %v", k.Name, d.Name, err)
				}
				for _, b := range art.Func.Blocks {
					blocks++
					maxN = max(maxN, len(b.Instrs))
					for _, tags := range []bool{false, true} {
						for _, window := range []int{0, 2, 8} {
							got := backend.ListSchedule(b, d, tags, window)
							want := backend.RefListSchedule(b, d, tags, window)
							if !slices.Equal(got.CycleOf, want.CycleOf) || got.Len != want.Len ||
								got.SteadyLen != want.SteadyLen || got.Bundles != want.Bundles {
								t.Fatalf("%s block %d (%d instructions) on %s, tags %v, window %d: schedule differs from the reference",
									k.Name, b.ID, len(b.Instrs), d.Name, tags, window)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d blocks, the largest %d instructions", blocks, maxN)
}
