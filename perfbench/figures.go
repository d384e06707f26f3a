package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// figureGens are the public generators of the 11 paper figures, in the
// order of figureIDs.
var figureGens = []func() (*bench.Figure, error){
	bench.Figure14, bench.Figure15, bench.Figure16, bench.Figure17, bench.Figure18,
	bench.Figure19, bench.Figure20, bench.Figure21, bench.Figure22, bench.CaseA, bench.CaseB,
}

// figures is the figures_cold workload: one op is one cold pass over
// the 11 figures, in a seeded order.
type figures struct {
	rng *rand.Rand
	// ref holds the warm-up pass's tables; every timed pass must
	// reproduce them byte for byte.
	ref             []string
	passes, badPass int
	caches          cacheCounts
	rssMB           float64 // peak RSS after rssPasses timed passes
}

// rssPasses is the timed pass after which figures_cold reads its peak
// RSS. Every cold pass leaves the heap larger (the source.Fingerprint
// memo is never cleared), so a reading at exit would follow how many
// passes fit in the run, and a faster program would read higher; after
// a fixed pass every run counts the same work. A 20-second run completes
// 70 to 95 passes on a 2-vCPU host.
const rssPasses = 40

func setupFigures(seed int64) (instance, error) {
	f := &figures{rng: rand.New(rand.NewSource(seed))}
	tables, _, err := f.pass(nil, -1, identity(len(figureGens)))
	if err != nil {
		return nil, err
	}
	f.ref = tables
	f.caches = cacheCounts{}
	return f, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pass regenerates every figure from cold caches in the given order and
// returns the tables by figure and the pass's latency in ms. With tr
// non-nil each generator call is a span under the pass's span.
func (f *figures) pass(tr *tracer, op int, order []int) ([]string, float64, error) {
	bench.ResetHarnessState()
	root := tr.begin("bench.pass", "", -1, op)
	start := time.Now()
	figs := make([]*bench.Figure, len(figureGens))
	for _, i := range order {
		id := tr.begin("bench.figure."+figureIDs[i], "", root, op)
		fig, err := figureGens[i]()
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("figure %s: %w", figureIDs[i], err)
		}
		figs[i] = fig
	}
	latency := ms(time.Since(start))
	tr.end(root)
	// The caches count from the reset above, so one pass's counts are
	// its lookups.
	f.caches = f.caches.add(readCaches())
	tables := make([]string, len(figs))
	for i, fig := range figs {
		tables[i] = fig.Table()
	}
	return tables, latency, nil
}

func (f *figures) measure(d time.Duration, tr *tracer) (*phase, error) {
	p, err := runOps(d, tr != nil, 1, func(i int, traced bool) (float64, error) {
		var t *tracer
		if traced {
			t = tr
		}
		tables, lat, err := f.pass(t, i, f.rng.Perm(len(figureGens)))
		if err != nil {
			return 0, err
		}
		f.passes++
		if !slices.Equal(tables, f.ref) {
			f.badPass++
		}
		if f.passes == rssPasses {
			if f.rssMB, err = peakRSSMB(); err != nil {
				return 0, err
			}
		}
		return lat, nil
	})
	if err != nil {
		return nil, err
	}
	if f.rssMB > 0 {
		p.rssMB, p.rssNote = f.rssMB, fmt.Sprintf("VmHWM after %d timed passes", rssPasses)
	}
	f.caches.rates(p)
	return p, nil
}

// target is one machine/compiler pair.
type target struct {
	machine string
	d       *machine.Desc
	cc      pipeline.Compiler
}

func mustTarget(m string, cc pipeline.Compiler) target {
	d, err := machine.ByName(m)
	if err != nil {
		panic(err) // only the four known machine names are passed
	}
	return target{m, d, cc}
}

// figureTargets lists, per kernel name, the machine/compiler pairs the
// figures measure it on, mirroring the figure definitions in package
// bench; Case A's cell (kernel8, ia64, weak -O3) is among them. Case
// B's inline program is not a corpus kernel and is left out.
func figureTargets() map[string][]target {
	suite := func(names ...string) []bench.Kernel {
		var ks []bench.Kernel
		for _, n := range names {
			ks = append(ks, bench.Suite(n)...)
		}
		return ks
	}
	L, SN, LN := suite("livermore", "linpack"), suite("stone", "nas"), suite("livermore", "linpack", "nas")
	out := map[string][]target{}
	add := func(ks []bench.Kernel, m string, ccs ...pipeline.Compiler) {
		for _, k := range ks {
			for _, cc := range ccs {
				t := mustTarget(m, cc)
				if !slices.ContainsFunc(out[k.Name], func(o target) bool { return o.machine == m && o.cc == cc }) {
					out[k.Name] = append(out[k.Name], t)
				}
			}
		}
	}
	add(L, "ia64", pipeline.WeakO3, pipeline.WeakNoO3)        // Figure 14
	add(SN, "ia64", pipeline.WeakO3, pipeline.WeakNoO3)       // Figure 15
	add(L, "ia64", pipeline.WeakO3, pipeline.StrongO3)        // Figure 16
	add(L, "pentium", pipeline.WeakO3, pipeline.WeakNoO3)     // Figure 17
	add(L, "ia64", pipeline.StrongO3, pipeline.StrongNoO3)    // Figure 18
	add(SN, "ia64", pipeline.StrongO3, pipeline.StrongNoO3)   // Figure 19
	add(LN, "power4", pipeline.StrongO3, pipeline.StrongNoO3) // Figure 20
	add(L, "arm7", pipeline.WeakO3)                           // Figures 21, 22
	return out
}

// expansions are the two SLMS variants every figure cell measures.
func expansions() []core.Options {
	alt := core.DefaultOptions()
	alt.Expansion = core.ExpandScalar
	return []core.Options{core.DefaultOptions(), alt}
}

// check is the output oracle, independent of the compiler: for every
// (kernel, machine, compiler, expansion) cell the figures measure, the
// interpreter's final state on the untransformed source must equal the
// simulator's final state for the compiled, transformed program (and
// for the compiled base program). The simulated cycles of both legs are
// gen_cycles. It runs after the timed ops, so the last pass's caches
// serve the compiles.
func (f *figures) check(p *phase) error {
	p.attempted, p.failed = f.passes, f.badPass
	targets := figureTargets()
	for _, k := range bench.Kernels() {
		ts := targets[k.Name]
		if len(ts) == 0 {
			continue
		}
		prog, err := source.Parse(k.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		ref := seededEnv(k.Setup)
		if err := interp.Run(prog, ref); err != nil {
			return fmt.Errorf("%s: interpreter: %w", k.Name, err)
		}
		var legs []*source.Program
		for _, opts := range expansions() {
			tp, _, err := core.TransformProgramCached(prog, opts)
			if err != nil {
				return fmt.Errorf("%s: transform: %w", k.Name, err)
			}
			legs = append(legs, tp)
		}
		for _, t := range ts {
			baseOK, cycles := simAgrees(p, prog, t, k.Setup, ref)
			p.genCycles += cycles
			for _, tp := range legs {
				ok, cycles := simAgrees(p, tp, t, k.Setup, ref)
				p.genCycles += cycles
				p.attempted++
				if !ok || !baseOK {
					p.failed++
				}
			}
		}
	}
	p.cyclesNote = "base+SLMS simulated cycles of every figure cell"
	p.decidedNote = "modulo-scheduled loops of the figure cells whose II meets the MII bound"
	return nil
}

// simAgrees compiles and simulates prog on t from the kernel's inputs
// and compares the final state with the interpreter's reference. A
// compile or simulation error is a disagreement.
func simAgrees(p *phase, prog *source.Program, t target, setup func(*interp.Env), ref *interp.Env) (bool, float64) {
	env := seededEnv(setup)
	m, art, err := pipeline.Run(prog, t.d, t.cc, env)
	if err != nil {
		return false, 0
	}
	countBound(p, art)
	delete(env.Arrays, backend.SpillArray)
	return len(interp.Compare(ref, env, interp.CompareOpts{FloatTol: 1e-6})) == 0, float64(m.Cycles)
}

func (f *figures) sweep(tr *tracer, p *phase) error {
	targets := figureTargets()
	var progs []sweepProg
	for _, k := range bench.Kernels() {
		if ts := targets[k.Name]; len(ts) > 0 {
			progs = append(progs, sweepProg{name: k.Name, src: k.Source, setup: k.Setup, targets: ts})
		}
	}
	if err := sweepLayers(tr, p, progs); err != nil {
		return err
	}
	return serverProbe(p, progs)
}

func (f *figures) close() {}
