package pipeline_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"slms/internal/analysis"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// The cross-scheduler differential battery: every corpus kernel, under
// all five standard SLMS option sets, is scheduled both by the Rau-style
// heuristic alone and with the SDC-based exact prover behind it (which
// refutes the IIs below the heuristic's schedule and keeps a lower one
// it finds), asserting
//
//	(a) analysis.VerifyResult statically proves every applied SLMS
//	    transformation feeding the schedulers,
//	(b) per loop body, the exact leg's II never exceeds the heuristic's
//	    — the prover only ever replaces a schedule with a lower one,
//	(c) observable program behavior is identical across schedulers and
//	    against the reference interpreter (the differential check; the
//	    heuristic leg's RunExperiments additionally compares every
//	    transformed run against its base run internally).
//
// The scheduler cross in (b) runs at the machine level, directly on the
// loop-body blocks of the compiled base + option-set artifacts — the
// pipeline and simulator around them are identical per backend, so
// re-simulating the whole corpus twice would only re-measure what (c)
// already established once per kernel. The exact leg's own end-to-end
// run in (c) covers one representative kernel per suite plus the
// known-gap loops, where a kept exact schedule is what gets simulated:
// every kept schedule has passed sched.Check, so the per-suite
// simulation pass guards the pipeline plumbing, not the scheduler — and
// keeps the battery inside the CI race budget. Kernel subtests run in
// parallel, so `go test -race` exercises the artifact cache, the cached
// transform store, and both scheduler legs concurrently.

// batteryOptionSets mirrors the corpus configurations the analysis
// tests verify under: paper defaults, filter off, scalar expansion,
// guard elision, and speculation.
func batteryOptionSets() []core.Options {
	mve := core.DefaultOptions()
	noFilter := core.DefaultOptions()
	noFilter.Filter = false
	arr := noFilter
	arr.Expansion = core.ExpandScalar
	noGuard := noFilter
	noGuard.NoGuard = true
	spec := noFilter
	spec.Speculate = true
	return []core.Options{mve, noFilter, arr, noGuard, spec}
}

var batteryOptionNames = []string{"default", "nofilter", "scalarexpand", "noguard", "speculate"}

// exactEndToEnd names the kernels whose exact leg also runs the full
// compile+simulate pipeline: one per suite, plus the loops where the
// exact scheduler provably beats the heuristic.
var exactEndToEnd = map[string]bool{
	"kernel1":   true, // livermore
	"kernel21":  true, // livermore, real-corpus gap
	"daxpy":     true, // linpack
	"cholsky":   true, // nas
	"stone1":    true, // stone
	"heurmiss":  true, // optgap, search-found gap
	"heurmiss2": true, // optgap, search-found gap
}

func TestCrossSchedulerBattery(t *testing.T) {
	kernels := bench.OptgapCorpus()
	if testing.Short() {
		// A representative slice: two plain corpus kernels plus the two
		// search-found loops where the heuristic provably misses the
		// minimal II (the strict-win witnesses).
		var subset []bench.Kernel
		for _, k := range kernels {
			switch k.Name {
			case "kernel1", "kernel21", "heurmiss", "heurmiss2":
				subset = append(subset, k)
			}
		}
		kernels = subset
	}
	d := machine.IA64Like()
	heurCC := pipeline.StrongO3
	heurCC.Scheduler = "ims"
	exactCC := pipeline.StrongO3
	exactCC.Scheduler = "exact"
	// Quick effort keeps the exact end-to-end leg tractable across the
	// whole corpus under -race; a budget cut only weakens a verdict (to
	// budget-exhausted), never an assertion.
	exactCC.Effort = "quick"

	heurCfg, err := ims.EffortConfig("ims", "")
	if err != nil {
		t.Fatal(err)
	}
	// The per-loop scheduler cross visits every loop of every artifact,
	// so its exact search gets a small budget; the known heuristic
	// misses are rediscovered even here.
	exactCfg := ims.Config{Prove: &exact.Sched{Budget: 500}}

	var strictWins atomic.Int64
	t.Run("kernels", func(t *testing.T) {
		for _, k := range kernels {
			k := k
			t.Run(k.Suite+"/"+k.Name, func(t *testing.T) {
				t.Parallel()
				prog := source.MustParse(k.Source)

				// Reference semantics: the pure interpreter.
				ref := interp.NewEnv()
				if k.Setup != nil {
					k.Setup(ref)
				}
				if err := interp.Run(prog, ref); err != nil {
					t.Fatalf("interp: %v", err)
				}

				// (c) end to end: the program compiled under each backend
				// behaves exactly like the interpreter.
				legs := []struct {
					name string
					cc   pipeline.Compiler
				}{{"ims", heurCC}}
				if exactEndToEnd[k.Name] {
					legs = append(legs, struct {
						name string
						cc   pipeline.Compiler
					}{"exact", exactCC})
				}
				for _, leg := range legs {
					env := interp.NewEnv()
					if k.Setup != nil {
						k.Setup(env)
					}
					if _, _, err := pipeline.Run(prog, d, leg.cc, env); err != nil {
						t.Fatalf("[%s] pipeline: %v", leg.name, err)
					}
					delete(env.Arrays, "__spill")
					if diffs := interp.Compare(ref, env, interp.CompareOpts{FloatTol: 1e-9}); len(diffs) > 0 {
						t.Errorf("[%s] diverges from the interpreter: %v", leg.name, diffs)
					}
				}

				// All five SLMS option sets through the full measurement
				// harness once: RunExperiments is itself a differential
				// check (each transformed run compared against the shared
				// base run), and its artifacts carry the compiled loop
				// bodies the scheduler cross below works on.
				outs, errs, err := pipeline.RunExperiments(prog, d, heurCC, batteryOptionSets(), k.Setup)
				if err != nil {
					t.Fatalf("base run: %v", err)
				}
				arts := []*pipeline.Artifact{}
				for i, oerr := range errs {
					if oerr != nil {
						t.Errorf("[%s] %v", batteryOptionNames[i], oerr)
					}
					if outs[i] == nil {
						continue
					}
					// (a) every applied transformation proves statically.
					// The transform cache is shared, so these are the same
					// results either backend would compile.
					for _, r := range outs[i].Results {
						if r == nil || !r.Applied {
							continue
						}
						if v := analysis.VerifyResult(r); v.Status != analysis.StatusProved {
							t.Errorf("[%s] loop at %v: transformation not proved (%v): %v",
								batteryOptionNames[i], r.Pos, v.Status, v.Notes)
						}
					}
					if i == 0 && outs[i].BaseArt != nil {
						arts = append(arts, outs[i].BaseArt)
					}
					arts = append(arts, outs[i].SLMSArt)
				}

				// (b) the scheduler cross: every counted loop body of every
				// artifact, scheduled by both legs.
				pairs := 0
				for ai, art := range arts {
					if art == nil {
						continue
					}
					for _, b := range art.Func.Blocks {
						if !b.IsLoopBody || !b.Counted {
							continue
						}
						hr := ims.ScheduleWith(b, d, true, heurCfg)
						er := ims.ScheduleWith(b, d, true, exactCfg)
						if !hr.OK || !er.OK {
							continue
						}
						pairs++
						switch {
						case er.II > hr.II:
							t.Errorf("artifact %d block %d: exact II %d exceeds heuristic II %d (verdict %+v)",
								ai, b.ID, er.II, hr.II, er.Opt)
						case er.II < hr.II:
							strictWins.Add(1)
						}
					}
				}
				if pairs == 0 {
					t.Logf("no modulo-scheduled loop pair for %s (all rejected or non-counted)", k.Name)
				}
			})
		}
	})
	if strictWins.Load() == 0 {
		t.Errorf("no loop where the exact scheduler strictly beat the heuristic's II — " +
			"the heurmiss kernels should each provide one")
	} else {
		t.Logf("exact scheduler strictly beat the heuristic on %d loop/artifact pairs", strictWins.Load())
	}
}

// TestSchedulerBackendsAgreeOnOptimality cross-checks the verdict
// plumbing on one known-gap kernel: the heuristic leg with an effort
// and the exact leg must both compile at the II the prover reported as
// the proven minimum. heurmiss2 keeps its gap through the pipeline's
// list-scheduling reorder (heurmiss does not), so the check runs below
// the heuristic's II.
func TestSchedulerBackendsAgreeOnOptimality(t *testing.T) {
	var gap bench.Kernel
	for _, k := range bench.OptgapKernels() {
		if k.Name == "heurmiss2" {
			gap = k
		}
	}
	if gap.Name == "" {
		t.Fatal("heurmiss2 kernel missing from the optgap corpus")
	}
	d := machine.IA64Like()
	prog := source.MustParse(gap.Source)

	heurCC := pipeline.StrongO3
	heurCC.Scheduler = "ims"
	heurCC.Effort = "standard" // attach the exact prover to the heuristic leg
	exactCC := pipeline.StrongO3
	exactCC.Scheduler = "exact"

	run := func(cc pipeline.Compiler) *pipeline.Artifact {
		env := interp.NewEnv()
		gap.Setup(env)
		_, art, err := pipeline.Run(prog, d, cc, env)
		if err != nil {
			t.Fatalf("%s: %v", cc.Scheduler, err)
		}
		return art
	}
	heurArt, exactArt := run(heurCC), run(exactCC)

	checked, gaps := 0, 0
	for id, h := range heurArt.IMSResults {
		e := exactArt.IMSResults[id]
		if h == nil || e == nil || !h.OK || !e.OK || h.Opt == nil {
			continue
		}
		checked++
		if h.Opt.Verdict == sched.VerdictGap {
			gaps++
		}
		if h.II != h.Opt.ExactII || e.II != h.Opt.ExactII {
			t.Errorf("block %d: prover says minimal II=%d (verdict %s), heuristic leg compiled at II=%d, exact leg at II=%d",
				id, h.Opt.ExactII, h.Opt.Verdict, h.II, e.II)
		}
		if e.Opt == nil || e.Opt.Verdict == "" {
			t.Errorf("block %d: exact backend returned no optimality verdict", id)
		}
	}
	if checked == 0 || gaps == 0 {
		t.Fatalf("%d modulo-scheduled loops with a prover verdict, %d of them gaps; want a gap to cross-check", checked, gaps)
	}
}

// TestExactSchedulerBoundedTime: the loops the exact scheduler used to
// search at every II from the lower bound up — budget-cut at each, and
// unbounded at max effort — compile under "exact" well inside a 1-s
// deadline at standard and max effort, modulo-scheduled at the
// heuristic's II, which the prover settles as optimal.
func TestExactSchedulerBoundedTime(t *testing.T) {
	want := map[string]bool{"btrix": true, "vpenta": true, "stone3": true,
		"optrec": true, "optmem": true, "optchain": true}
	d := machine.IA64Like()
	for _, k := range bench.OptgapCorpus() {
		if !want[k.Name] {
			continue
		}
		delete(want, k.Name)
		prog := source.MustParse(k.Source)
		for _, effort := range []string{"standard", "max"} {
			cc := pipeline.StrongO3
			cc.Scheduler, cc.Effort = "exact", effort
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			art, err := pipeline.CompileForCtx(ctx, prog, d, cc)
			late := ctx.Err() // the compile returned after the deadline
			cancel()
			if err != nil || late != nil {
				t.Fatalf("%s at %s: err %v, deadline %v", k.Name, effort, err, late)
			}
			if len(art.IMSResults) == 0 {
				t.Fatalf("%s at %s: no loop reached the modulo scheduler", k.Name, effort)
			}
			for id, r := range art.IMSResults {
				if !r.OK || r.Opt == nil || r.Opt.Verdict != sched.VerdictOptimal || r.II != r.Opt.HeurII {
					t.Errorf("%s at %s, block %d: OK=%v II=%d (%s), verdict %+v; want proven optimal at the heuristic's II",
						k.Name, effort, id, r.OK, r.II, r.Reason, r.Opt)
				}
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("kernels missing from the corpus: %v", want)
	}
}
