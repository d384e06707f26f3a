package slms

import (
	"context"
	"io"

	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/slc"
	"slms/internal/source"
)

// This file is the public API: thin aliases and convenience wrappers
// over the internal packages, so that downstream users can consume the
// library without reaching into internal/ (which Go forbids anyway).

// Program is a parsed mini-C compilation unit.
type Program = source.Program

// Options configures the SLMS transformation (see DefaultOptions).
type Options = core.Options

// Result describes one SLMS application (II, stages, unroll factor, the
// replacement statement, and the decision log).
type Result = core.Result

// SLCOptions configures the full source-level-compiler driver.
type SLCOptions = slc.Options

// SLCResult is the driver outcome: the optimized program plus the
// per-loop action transcript.
type SLCResult = slc.Result

// Machine is a simulated target machine description.
type Machine = machine.Desc

// Compiler is a simulated final-compiler configuration.
type Compiler = pipeline.Compiler

// Metrics is a simulation outcome (cycles, energy, instruction and
// memory counts).
type Metrics = pipeline.Outcome

// Env carries program inputs and outputs for execution.
type Env = interp.Env

// Parse parses mini-C source text.
func Parse(src string) (*Program, error) { return source.Parse(src) }

// Print renders a program back to (re-parseable) source text.
func Print(p *Program) string { return source.Print(p) }

// PrintPaper renders a program with par groups in the paper's
// `a; || b;` style.
func PrintPaper(p *Program) string { return source.PrintPaper(p) }

// DefaultOptions returns the paper's SLMS configuration: bad-case filter
// at 0.85, modulo variable expansion, guarded output.
func DefaultOptions() Options { return core.DefaultOptions() }

// Transform applies source-level modulo scheduling to every innermost
// canonical loop of the program and returns the transformed program with
// one Result per loop encountered. The input is not modified.
func Transform(p *Program, opts Options) (*Program, []*Result, error) {
	return core.TransformProgram(p, opts)
}

// TransformSource is the string-to-string convenience form of Transform.
func TransformSource(src string, opts Options) (string, []*Result, error) {
	p, err := source.Parse(src)
	if err != nil {
		return "", nil, err
	}
	out, results, err := core.TransformProgram(p, opts)
	if err != nil {
		return "", nil, err
	}
	return source.Print(out), results, nil
}

// DefaultSLCOptions enables the whole source-level compiler: SLMS plus
// fusion, interchange, downward-loop mirroring, reduction splitting and
// while-loop pipelining as enabling transformations.
func DefaultSLCOptions() SLCOptions { return slc.DefaultOptions() }

// Optimize runs the source-level compiler driver over the program.
func Optimize(p *Program, opts SLCOptions) (*SLCResult, error) {
	return slc.Optimize(p, opts)
}

// Run executes the program in the reference interpreter against env
// (pre-load inputs with env.SetFloatArray / SetScalar; results are read
// back from env).
func Run(p *Program, env *Env) error { return interp.Run(p, env) }

// NewEnv returns an empty execution environment.
func NewEnv() *Env { return interp.NewEnv() }

// Simulated machines of the paper's evaluation.
func MachineIA64() *Machine    { return machine.IA64Like() }
func MachinePower4() *Machine  { return machine.Power4Like() }
func MachinePentium() *Machine { return machine.PentiumLike() }
func MachineARM7() *Machine    { return machine.ARM7Like() }

// Simulated final-compiler configurations.
var (
	CompilerWeak   = pipeline.WeakO3   // GCC-like: list scheduling only
	CompilerStrong = pipeline.StrongO3 // ICC/XLC-like: + machine-level modulo scheduling
)

// Measure compiles and simulates the program twice — as written and
// after SLMS — on the given machine/compiler pair, verifies both compute
// identical results, and reports cycles, energy and the speedup. seed
// (optional) pre-loads inputs into a fresh environment for each run.
func Measure(p *Program, m *Machine, cc Compiler, opts Options, seed func(*Env)) (*Metrics, error) {
	return pipeline.RunExperiment(p, pipeline.Experiment{
		Machine: m, Compiler: cc, SLMS: opts,
	}, seed)
}

// Modes selects what one MeasureCtx call does besides measuring:
// Profile attributes every simulated cycle (a Profile on each leg),
// Verify proves every SLMS application before it is compiled. The zero
// value, which Measure uses, does neither. Modes belong to the call:
// concurrent calls in different modes do not affect each other.
type Modes = pipeline.Modes

// MeasureCtx is Measure honoring a context and modes: the simulator
// polls the deadline every few thousand simulated instructions and the
// driver checks it between legs. Transformation and compilation go
// through the shared pipeline cache, which runs each to completion and
// checks ctx only after it returns, so a deadline does not cut a long
// compile short (ROADMAP item 1). The returned error wraps ctx.Err() on
// cancellation (test with errors.Is(err, context.DeadlineExceeded)).
func MeasureCtx(ctx context.Context, p *Program, m *Machine, cc Compiler, opts Options, seed func(*Env),
	modes Modes) (*Metrics, error) {
	outs, errs, err := pipeline.RunExperimentsCtx(ctx, p, m, cc, []core.Options{opts}, seed, modes)
	if err != nil {
		return nil, err
	}
	if errs[0] != nil {
		return nil, errs[0]
	}
	return outs[0], nil
}

// Telemetry: the library mirrors the CLIs' -trace/-metrics surface.
// StartTrace/StopTrace bracket a traced region; while a trace is active
// every Transform/Measure call records a span tree ("transform" or
// "experiment" at its root) whose loop spans hold the per-loop decision
// records, at near-zero overhead (disabled, the instrumentation is a
// single atomic load).

// Tracer collects pipeline span trees, decision records included.
type Tracer = obs.Tracer

// Decision is one per-loop accept/skip/refute record: a stable SLMS2xx
// code, the verdict and the measured evidence (filter ratio, II search
// iterations, ...) the decision rests on. Every Result carries its
// Decision, and its loop position in Result.Pos; a tracer additionally
// files each as an event of the loop's span.
type Decision = obs.Decision

// Trace export formats accepted by StopTrace.
const (
	TraceFormatChrome = obs.FormatChrome // chrome://tracing / Perfetto
	TraceFormatJSONL  = obs.FormatJSONL  // one JSON object per span/decision
)

// StartTrace installs a fresh process-wide tracer and returns it.
// Subsequent pipeline calls record spans and decisions into it.
func StartTrace() *Tracer {
	t := obs.NewTracer()
	obs.Enable(t)
	return t
}

// StopTrace uninstalls the active tracer and, when w is non-nil, writes
// the collected trace to w in the given format (TraceFormatChrome or
// TraceFormatJSONL). Returns the stopped tracer (nil when tracing was
// off).
func StopTrace(w io.Writer, format string) (*Tracer, error) {
	t := obs.Active()
	obs.Disable()
	if t == nil || w == nil {
		return t, nil
	}
	return t, t.WriteTrace(w, format)
}

// Decisions returns the per-loop decision records the active tracer's
// spans hold, in span creation order (nil when tracing is off).
func Decisions() []Decision {
	if t := obs.Active(); t != nil {
		return t.Decisions()
	}
	return nil
}

// MetricsText renders the process-wide metrics registry (counters,
// gauges, phase histograms) as a sorted plain-text dump. slmsd serves
// the same registry in the Prometheus text format at /metrics.
func MetricsText() string { return obs.MetricsText() }

// Profiling: cycle attribution inside the simulator. A MeasureCtx call
// with Modes{Profile: true} attributes each cycle of its runs to a
// (source line, cause) pair — issue, hazard stall, L1 miss, pipeline
// fill, prologue/epilogue, branch — and its outcome carries a Profile
// on its Base and SLMS metrics, including per-loop schedule-quality
// stats joined with the SLMS2xx decision records. Unprofiled calls
// (Measure, and MeasureCtx without Profile) pay a handful of dormant
// nil checks on the simulator's hot path.

// Profile is one run's cycle-attribution profile: per-line and
// per-block cause breakdowns plus per-loop schedule quality.
type Profile = prof.Profile

// Profile output formats accepted by WriteProfile.
const (
	ProfileFormatText  = "text"  // hot-line tables + per-loop stats
	ProfileFormatJSON  = "json"  // the Profile structs, indented
	ProfileFormatPprof = "pprof" // gzipped profile.proto for `go tool pprof`
)

// WriteProfile renders profiles collected from Measure outcomes
// (Outcome.Base.Profile, Outcome.SLMS.Profile) in the given format.
func WriteProfile(w io.Writer, format string, ps ...*Profile) error {
	return prof.Write(w, format, ps...)
}
