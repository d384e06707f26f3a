package ims_test

import (
	"testing"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/source"
)

// TestGapLoopsCompileAtProvenII: on the three census loops where the
// heuristic misses the minimal II by one, a configured prover's lower
// schedule is kept — under "exact" and under "ims" with an effort alike.
// It is an external test because internal/bench, which holds the
// corpus, imports ims.
func TestGapLoopsCompileAtProvenII(t *testing.T) {
	d := machine.IA64Like()
	gaps := map[string]bool{"kernel21": true, "heurmiss": true, "heurmiss2": true}
	for _, k := range bench.OptgapCorpus() {
		if !gaps[k.Name] {
			continue
		}
		delete(gaps, k.Name)
		f, err := backend.Compile(source.MustParse(k.Source))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		backend.LocalCSE(f)
		for _, sel := range [][2]string{{"", "standard"}, {"exact", ""}} {
			cfg, err := ims.EffortConfig(sel[0], sel[1])
			if err != nil {
				t.Fatal(err)
			}
			loops := 0
			for _, b := range f.Blocks {
				if !b.IsLoopBody || !b.Counted {
					continue
				}
				loops++
				r := ims.ScheduleWith(b, d, true, cfg)
				if !r.OK || r.Opt == nil || r.II != r.Opt.ExactII || r.II >= r.Opt.HeurII {
					t.Errorf("%s under %q/%q: OK=%v II=%d, verdict %+v; want the proven II below the heuristic's",
						k.Name, sel[0], sel[1], r.OK, r.II, r.Opt)
				}
			}
			if loops != 1 {
				t.Fatalf("%s: %d counted loops, want 1", k.Name, loops)
			}
		}
	}
	if len(gaps) != 0 {
		t.Fatalf("gap kernels missing from the corpus: %v", gaps)
	}
}
