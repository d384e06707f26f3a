// Package pipeline is the end-to-end driver of the simulated tool chain:
// mini-C source → (optional SLMS at source level) → final compiler
// (code generation, register allocation, block scheduling, optional
// machine-level modulo scheduling) → cycle-level simulation. It models
// the final-compiler classes of the paper's evaluation:
//
//   - Weak (GCC-class):  -O3 = list scheduling; no modulo scheduling, no
//     dependence info forwarded to the back end.
//   - Strong (ICC/XLC-class): -O3 = list scheduling + iterative modulo
//     scheduling of innermost loops with affine memory disambiguation.
//   - NoO3: no compiler reordering at all (sequential issue order).
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"slms/internal/analysis"
	"slms/internal/backend"
	"slms/internal/core"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/sim"
	"slms/internal/source"
)

// Compiler describes a final-compiler configuration.
type Compiler struct {
	Name string
	// Reorder enables basic-block list scheduling (-O3).
	Reorder bool
	// IMS enables machine-level iterative modulo scheduling of innermost
	// loop bodies (strong compilers only).
	IMS bool
	// Tags forwards the front end's affine dependence analysis to the
	// schedulers (strong compilers only).
	Tags bool
	// Window bounds the list scheduler's program-order lookahead
	// (0 = unbounded). Weak compilers schedule within a small window.
	Window int
	// Scheduler selects the modulo scheduling of IMS-bearing compiles:
	// "" or "ims" (Rau's heuristic alone, the default) or "exact" (the
	// heuristic's schedule, exact refutation of every II below it, and a
	// lower exact schedule kept when one exists). Resolved by
	// ims.EffortConfig, so an unknown name is a compile-time error,
	// never a silent fallback.
	Scheduler string
	// Effort sets the exact search budget: "" or "standard" (the
	// default budget), "quick" (a small budget), "max" (unlimited). A
	// non-empty effort runs the exact prover under either scheduler
	// name, attaching the optimality verdict (Result.Opt) at that
	// effort.
	Effort string
}

// Standard final-compiler configurations.
var (
	WeakNoO3   = Compiler{Name: "weak -O0"}
	WeakO3     = Compiler{Name: "weak -O3 (GCC-like)", Reorder: true}
	StrongO3   = Compiler{Name: "strong -O3 (ICC/XLC-like)", Reorder: true, IMS: true, Tags: true}
	StrongNoO3 = Compiler{Name: "strong -O0", Tags: true}
)

// CompilerByName resolves the short compiler-class names shared by the
// CLIs and the server ("weak", "strong"), with o0 selecting the
// no-reordering variant.
func CompilerByName(name string, o0 bool) (Compiler, error) {
	switch {
	case name == "weak" && o0:
		return WeakNoO3, nil
	case name == "weak":
		return WeakO3, nil
	case name == "strong" && o0:
		return StrongNoO3, nil
	case name == "strong":
		return StrongO3, nil
	}
	return Compiler{}, fmt.Errorf("unknown compiler %q (want weak or strong)", name)
}

// Artifact is a fully compiled program plus its timing plan. After
// CompileFor returns, an artifact's program and plan are never mutated —
// the simulator keeps all execution state (register file, array
// bindings, base addresses) per run — so artifacts can be cached and
// simulated concurrently. The predecode slots below are lazily built
// caches, not mutations of the compiled program.
type Artifact struct {
	Func  *ir.Func
	Plan  *sim.Plan
	Alloc *backend.AllocResult
	// IMSResults records the modulo-scheduling outcome per loop body
	// block ID (including rejected attempts, for reporting).
	IMSResults map[int]*ims.Result
	// LoopSched records the static block schedule of each innermost
	// loop-body block (bundle statistics).
	LoopSched map[int]*backend.BlockSched

	// Cached simulator predecodes, one per profiling mode (the profiler's
	// slot tables are part of the predecode). Repeated simulations of a
	// cached artifact — the bench harness's best-of-N, the base leg shared
	// across option sets, repeated /v1/profile requests — share the decode
	// tables instead of re-deriving them per run. Each run picks its slot
	// from its own Modes.Profile, so a profiled and a plain measurement
	// of one artifact run side by side, each in its own mode.
	pdPlain atomic.Pointer[sim.Predecoded]
	pdProf  atomic.Pointer[sim.Predecoded]
}

// Predecoded returns the artifact's shared simulator predecode for d in
// the given mode, building it on first use: every run of a profiled
// predecode attributes its cycles, and no run of a plain one does.
// Concurrent first uses race benignly: one build wins, the others are
// dropped.
func (a *Artifact) Predecoded(d *machine.Desc, profiled bool) *sim.Predecoded {
	slot := &a.pdPlain
	if profiled {
		slot = &a.pdProf
	}
	if pd := slot.Load(); pd != nil {
		return pd
	}
	pd := sim.Predecode(a.Func, d, a.Plan, profiled)
	if !slot.CompareAndSwap(nil, pd) {
		return slot.Load()
	}
	return pd
}

// CompileFor lowers and schedules a program for the machine/compiler
// pair. Every call compiles afresh; use CompileForCached to share
// artifacts across repeated identical compilations.
func CompileFor(p *source.Program, d *machine.Desc, cc Compiler) (*Artifact, error) {
	return CompileForCtx(context.Background(), p, d, cc)
}

// CompileForCtx is CompileFor honoring a context: the back-end
// scheduling loop (register allocation, block scheduling, IMS — the
// expensive II searches live here) checks ctx between blocks and aborts
// early when the deadline passes. Only tests call it: every measurement
// and every slmsd request compiles through the shared compile stage
// (CompileForCached), which deliberately does NOT take a context —
// cached artifacts are shared across requests, and one canceled request
// must never poison the entry every later request reuses. Bounding that
// stage by a deadline is ROADMAP item 1.
func CompileForCtx(ctx context.Context, p *source.Program, d *machine.Desc, cc Compiler) (*Artifact, error) {
	lw, err := lower(p)
	if err != nil {
		return nil, err
	}
	return scheduleForCtx(ctx, lw.f, lw.live, d, cc)
}

// lowered is the machine-independent front half of a compilation: the
// program lowered to the virtual ISA plus local CSE, and the liveness
// register allocation starts from. The lower stage of the pipeline cache
// shares one across every (machine, compiler) pair of the program, so
// nothing writes it after lower returns (see header).
type lowered struct {
	f    *ir.Func
	live *backend.Liveness
}

// lower runs the machine-independent front half of the compilation.
func lower(p *source.Program) (*lowered, error) {
	f, err := backend.Compile(p)
	if err != nil {
		return nil, err
	}
	backend.LocalCSE(f)
	return &lowered{f: f, live: backend.NewLiveness(f)}, nil
}

// header returns a function that shares f's instructions, register
// tables and array map but owns its block list and block headers, so the
// back end can reorder and extend it without writing f: register
// allocation copies an instruction before rewriting its operands and the
// array map before adding the spill area, NewReg appends to a copy of
// the capped register types, and applyOrder builds a new instruction
// slice.
func header(f *ir.Func) *ir.Func {
	h := *f
	h.RegTypes = f.RegTypes[:len(f.RegTypes):len(f.RegTypes)]
	h.Blocks = make([]*ir.Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := *b
		h.Blocks[i] = &nb
	}
	return &h
}

// scheduleForCtx runs the machine-dependent back half: register
// allocation, block scheduling and (for strong static compilers) IMS.
// It writes f's block headers, register tables and array map but no
// instruction, so f may be a header over a shared lowered function; live
// is f's liveness. Without a deadline the only failure mode is an invalid
// scheduler configuration. ctx is checked before each block's
// (potentially IMS-bearing) scheduling round. Blocks are scheduled in
// order, and each fills its plan slot, its loop-map entries and its loop
// head's mark as it goes.
func scheduleForCtx(ctx context.Context, f *ir.Func, live *backend.Liveness, d *machine.Desc, cc Compiler) (*Artifact, error) {
	imsCfg, err := ims.EffortConfig(cc.Scheduler, cc.Effort)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	alloc := backend.AllocateWith(f, live, d)
	art := &Artifact{
		Func: f, Alloc: alloc,
		IMSResults: map[int]*ims.Result{},
		LoopSched:  map[int]*backend.BlockSched{},
	}
	plan := &sim.Plan{Blocks: make([]sim.BlockTiming, len(f.Blocks))}
	art.Plan = plan

	for _, b := range f.Blocks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: compile aborted: %w", err)
		}
		// Reordering compilers physically reorder the instructions so the
		// in-order hardware of superscalar machines benefits too; the
		// block is then timed in its new physical order.
		if cc.Reorder {
			applyOrder(b, backend.ListCycles(b, d, cc.Tags, cc.Window))
		}
		sched := backend.SequentialSchedule(b, d)
		if d.Policy == machine.Static {
			plan.Blocks[b.ID].Sched = sched
		}
		if !b.IsLoopBody {
			continue
		}
		art.LoopSched[b.ID] = sched
		// The final compiler rotates counted loops: mark the head
		// (the target of the body's back edge) so repeat tests are
		// folded into the body's per-iteration cost.
		if n := len(b.Instrs); n > 0 && b.Instrs[n-1].Op == ir.Br {
			head := b.Instrs[n-1].Target
			if head >= 0 && head < len(plan.Blocks) {
				plan.Blocks[head].LoopHead = true
				plan.Blocks[head].BodyID = b.ID
			}
		}
		if cc.IMS && d.Policy == machine.Static && b.Counted {
			r := ims.ScheduleWith(b, d, cc.Tags, imsCfg)
			art.IMSResults[b.ID] = r
			if r.OK {
				plan.Blocks[b.ID].IMS = r
			}
		}
	}
	return art, nil
}

// applyOrder permutes a block's instructions into schedule order
// (stable by issue cycle, then original index), keeping the branch last.
// It replaces b.Instrs with a new slice and leaves the old one as it was.
// A counting sort over the cycles keeps it O(n + cycles).
func applyOrder(b *ir.Block, cycleOf []int) {
	if len(cycleOf) == 0 {
		return
	}
	// next[c] is where the next instruction of cycle c goes.
	next := make([]int, slices.Max(cycleOf)+2)
	for _, c := range cycleOf {
		next[c+1]++
	}
	for c := 1; c < len(next); c++ {
		next[c] += next[c-1]
	}
	out := make([]*ir.Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		out[next[cycleOf[i]]] = in
		next[cycleOf[i]]++
	}
	b.Instrs = out
}

// Modes selects what a measurement does besides compiling, simulating
// and comparing. It is an argument of the measurement that asks for it
// (RunCtx, RunExperimentsCtx, Measure, Experiment), never a process-wide
// setting, so concurrent measurements of one cached artifact each run
// in their own mode. The zero value measures plainly.
type Modes struct {
	// Profile attributes every simulated cycle to a (source line,
	// block, cause) triple: each leg's Metrics.Profile is filled, with
	// per-loop schedule-quality stats.
	Profile bool
	// Verify proves every SLMS application before the transformed
	// program is compiled: a refuted loop, or a differential mismatch
	// where the static proof is inconclusive, fails its option set. Run
	// and RunCtx transform nothing, so they ignore it.
	Verify bool
}

// Run compiles and simulates a program, seeding and updating env, with
// no profile. Compilation goes through the pipeline cache (see
// CompileForCached), so repeated runs of the same (program, machine,
// compiler) triple share one immutable artifact.
func Run(p *source.Program, d *machine.Desc, cc Compiler, env *interp.Env) (*sim.Metrics, *Artifact, error) {
	return RunCtx(context.Background(), p, d, cc, env, Modes{})
}

// RunCtx is Run honoring a context and modes: the simulator polls the
// deadline every few thousand instructions, so a request deadline stops
// the pipeline mid-simulation instead of after it. Compilation goes
// through the shared compile stage, which runs to completion and checks
// ctx only after it returns (see CompileForCtx). With modes.Profile
// the metrics carry the run's profile. Under a span carried by ctx
// (obs.ContextWithSpan), the run records "compile" (with the cache
// outcome) and "sim" (with the simulated cycle count) child spans, each
// also feeding the phase.compile / phase.sim duration histograms.
func RunCtx(ctx context.Context, p *source.Program, d *machine.Desc, cc Compiler, env *interp.Env,
	modes Modes) (m *sim.Metrics, art *Artifact, err error) {
	sp := obs.SpanFrom(ctx)
	obs.Time(sp, "compile", func(csp *obs.Span) {
		art, err = compileForCachedCtxSpan(ctx, csp, p, d, cc)
	})
	if err != nil {
		return nil, nil, err
	}
	obs.Time(sp, "sim", func(ssp *obs.Span) {
		m, err = art.Predecoded(d, modes.Profile).RunCtx(ctx, env, 0)
		if m != nil {
			ssp.Attr("cycles", m.Cycles)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: %w\n%s", err, art.Func.Dump())
	}
	// Standalone runs (slmssim, slmsc -profile) get loop stats without
	// decision records; RunExperimentsCtx re-annotates with them.
	annotateProfile(m, art, d, cc, "", nil)
	return m, art, nil
}

// Experiment compares a program with and without SLMS under one
// machine/compiler pair, running both on identical inputs.
type Experiment struct {
	Machine  *machine.Desc
	Compiler Compiler
	SLMS     core.Options
	Modes    Modes
}

// Outcome is one before/after measurement.
type Outcome struct {
	Base    *sim.Metrics
	SLMS    *sim.Metrics
	Applied bool    // SLMS transformed at least one loop
	Speedup float64 // base cycles / slms cycles
	// PowerRatio is base energy / slms energy (>1 = SLMS saves energy).
	PowerRatio float64
	BaseArt    *Artifact
	SLMSArt    *Artifact
	Results    []*core.Result
}

// RunExperiment measures the SLMS speedup of prog under the experiment
// configuration. seed populates the environment before each run (called
// with fresh environments).
func RunExperiment(prog *source.Program, ex Experiment, seed func(*interp.Env)) (*Outcome, error) {
	outs, errs, err := RunExperimentsCtx(context.Background(), prog, ex.Machine, ex.Compiler,
		[]core.Options{ex.SLMS}, seed, ex.Modes)
	if err != nil {
		return nil, err
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	return outs[0], nil
}

// RunExperiments measures prog once per SLMS option set, sharing a
// single base (untransformed) run across all of them — the base leg is
// identical regardless of the transform options, so re-simulating it
// per option set is pure waste. The returned slices parallel optsList:
// errs[i] reports a failure specific to option set i (transform or
// transformed-program run); the error return reports a base-run failure
// that invalidates every option set. It neither profiles nor verifies.
func RunExperiments(prog *source.Program, d *machine.Desc, cc Compiler,
	optsList []core.Options, seed func(*interp.Env)) ([]*Outcome, []error, error) {
	return RunExperimentsCtx(context.Background(), prog, d, cc, optsList, seed, Modes{})
}

// RunExperimentsCtx is RunExperiments honoring a context and modes:
// every simulation leg polls the deadline as it runs, and the driver
// checks it between phases. The transform and the compiles run through
// the shared pipeline cache and complete regardless of ctx — their
// results are shared across requests, and ctx is checked only after
// each returns (see CompileForCtx) — but the loop stops before starting
// the next leg once the context is done. With modes.Profile both legs
// carry profiles; with modes.Verify every option set's transform is
// proved before it is compiled. The base leg and each option set's
// transform/verify/compile/sim/compare phases become child spans of the
// span ctx carries, or, with tracing on and no span in ctx, of an
// "experiment" root of their own; each feeds its phase histogram.
func RunExperimentsCtx(ctx context.Context, prog *source.Program, d *machine.Desc, cc Compiler,
	optsList []core.Options, seed func(*interp.Env), modes Modes) ([]*Outcome, []error, error) {
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		sp = obs.Root("experiment")
		defer sp.End()
	}
	envBase := interp.NewEnv()
	if seed != nil {
		seed(envBase)
	}
	baseSp := sp.Child("base")
	mBase, artBase, err := RunCtx(obs.ContextWithSpan(ctx, baseSp), prog, d, cc, envBase, modes)
	baseSp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("base run: %w", err)
	}
	annotateProfile(mBase, artBase, d, cc, "base", nil)
	// Spill slots are simulator-internal storage, not program results.
	delete(envBase.Arrays, backend.SpillArray)

	outs := make([]*Outcome, len(optsList))
	errs := make([]error, len(optsList))
	for i, opts := range optsList {
		if cerr := ctx.Err(); cerr != nil {
			errs[i] = fmt.Errorf("pipeline: experiment aborted: %w", cerr)
			continue
		}
		legSp := sp.Child(fmt.Sprintf("slms[%d]", i))
		out := &Outcome{Base: mBase, BaseArt: artBase}
		var transformed *source.Program
		var results []*core.Result
		obs.Time(legSp, "transform", func(tsp *obs.Span) {
			transformed, results, err = core.TransformProgramCachedSpan(tsp, prog, opts)
		})
		if err != nil {
			errs[i] = fmt.Errorf("slms: %w", err)
			legSp.End()
			continue
		}
		out.Results = results
		for _, r := range results {
			if r.Applied {
				out.Applied = true
			}
		}
		if modes.Verify {
			// Verification only reads the shared results, and the
			// verifier's cache stage proves each (program, options) pair
			// once across the cells that share its transform.
			var verr error
			obs.Time(legSp, "verify", func(vsp *obs.Span) {
				verr = analysis.VerifyTransformed(prog, transformed, results, opts)
				if verr != nil {
					verr = fmt.Errorf("verify: %w", verr)
					vsp.Attr("verdict", "refuted")
					obs.RecordDecision(vsp, obs.Decision{
						Code: obs.DecVerifyRefuted, Verdict: obs.VerdictRefute,
						Reason: verr.Error(),
					})
				} else {
					vsp.Attr("verdict", "ok")
				}
			})
			if verr != nil {
				errs[i] = verr
				legSp.End()
				continue
			}
		}
		envSLMS := interp.NewEnv()
		if seed != nil {
			seed(envSLMS)
		}
		mSLMS, artSLMS, err := RunCtx(obs.ContextWithSpan(ctx, legSp), transformed, d, cc, envSLMS, modes)
		if err != nil {
			errs[i] = fmt.Errorf("slms run: %w", err)
			legSp.End()
			continue
		}
		out.SLMS, out.SLMSArt = mSLMS, artSLMS
		annotateProfile(mSLMS, artSLMS, d, cc, "slms", results)

		// Correctness: both executions must leave identical state (modulo
		// reduction reassociation tolerance).
		delete(envSLMS.Arrays, backend.SpillArray)
		var diffs []interp.Diff
		obs.Time(legSp, "compare", func(*obs.Span) {
			diffs = interp.Compare(envBase, envSLMS, interp.CompareOpts{FloatTol: 1e-6})
		})
		legSp.End()
		if len(diffs) > 0 {
			errs[i] = fmt.Errorf("SLMS changed program results: %v", diffs)
			continue
		}
		if mSLMS.Cycles > 0 {
			out.Speedup = float64(mBase.Cycles) / float64(mSLMS.Cycles)
		}
		if mSLMS.Energy > 0 {
			out.PowerRatio = mBase.Energy / mSLMS.Energy
		}
		outs[i] = out
	}
	return outs, errs, nil
}
