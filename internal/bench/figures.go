package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"slms/internal/interp"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/sim"
	"slms/internal/source"
)

// Row is one bar of a reproduced figure.
type Row struct {
	Kernel  string
	Value   float64 // the figure's metric (speedup or power ratio)
	Value2  float64 // second series where the figure has one (e.g. no-O3)
	Applied bool
	Note    string
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	ID     string
	Title  string
	Metric string
	Series []string // column titles for Value/Value2
	Rows   []Row
	Notes  []string
}

// Table renders the figure as an aligned text table.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "metric: %s\n", f.Metric)
	header := fmt.Sprintf("%-12s", "kernel")
	for _, s := range f.Series {
		header += fmt.Sprintf(" %12s", s)
	}
	fmt.Fprintln(&b, header)
	fmt.Fprintln(&b, strings.Repeat("-", len(header)))
	for _, r := range f.Rows {
		line := fmt.Sprintf("%-12s %12.3f", r.Kernel, r.Value)
		if len(f.Series) > 1 {
			line += fmt.Sprintf(" %12.3f", r.Value2)
		}
		if !r.Applied {
			line += "   (slms skipped: " + r.Note + ")"
		} else if r.Note != "" {
			line += "   " + r.Note
		}
		fmt.Fprintln(&b, line)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// geoMeanApplied summarizes the applied rows.
func (f *Figure) geoMeanApplied() (float64, int) {
	prod, n := 1.0, 0
	for _, r := range f.Rows {
		if r.Applied && r.Value > 0 {
			prod *= r.Value
			n++
		}
	}
	if n == 0 {
		return 1, 0
	}
	return math.Pow(prod, 1/float64(n)), n
}

// measure runs kernel k under the machine/compiler pair and returns the
// outcome. The paper's experiments run SLMS "with and without MVE" and
// keep the best; we do the same with MVE vs scalar expansion. Each
// measurement is one span tree (root "measure:<kernel>") when tracing
// is on, and the best outcome's cycles feed CyclesTable.
func measure(k Kernel, d *machine.Desc, cc pipeline.Compiler, modes pipeline.Modes) (*pipeline.Outcome, error) {
	sp := obs.Root("measure:"+k.Name).
		Attr("kernel", k.Name).Attr("machine", d.Name).Attr("compiler", cc.Name)
	defer sp.End()
	var prog *source.Program
	var perr error
	obs.Time(sp, "parse", func(*obs.Span) {
		prog, perr = source.ParseCached(k.Source)
	})
	if perr != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, perr)
	}
	altOpts := core.DefaultOptions()
	altOpts.Expansion = core.ExpandScalar
	// One shared base run for both variants (the untransformed leg does
	// not depend on the SLMS options).
	outs, errs, err := pipeline.RunExperimentsCtx(obs.ContextWithSpan(context.TODO(), sp), prog, d, cc,
		[]core.Options{core.DefaultOptions(), altOpts}, k.Setup, modes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	if errs[0] != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, errs[0])
	}
	best := outs[0]
	if alt := outs[1]; errs[1] == nil && alt.Applied && alt.Speedup > best.Speedup {
		best = alt
	}
	recordKernelMeasurement(k.Name, best)
	return best, nil
}

// kernelAgg is the per-kernel accumulation over every measurement the
// process performed: the cycle totals of the best legs and, for
// measurements in a profiling mode, the legs' full profiles.
type kernelAgg struct {
	baseCycles int64
	slmsCycles int64
	profiles   []*prof.Profile
}

// kernelMeasurements accumulates per-kernel data over every measurement
// performed by the process. measure runs once per memoized (kernel,
// machine, compiler) triple, so each configuration counts once.
var kernelMeasurements = struct {
	sync.Mutex
	m map[string]*kernelAgg
}{m: map[string]*kernelAgg{}}

func recordKernelMeasurement(kernel string, best *pipeline.Outcome) {
	if best == nil || best.Base == nil {
		return
	}
	kernelMeasurements.Lock()
	defer kernelMeasurements.Unlock()
	agg := kernelMeasurements.m[kernel]
	if agg == nil {
		agg = &kernelAgg{}
		kernelMeasurements.m[kernel] = agg
	}
	agg.baseCycles += best.Base.Cycles
	slms := best.SLMS
	if slms == nil {
		slms = best.Base // transform failed: report the base leg
	}
	agg.slmsCycles += slms.Cycles
	legs := []*sim.Metrics{best.Base}
	if slms != best.Base { // avoid double-listing a shared leg
		legs = append(legs, slms)
	}
	for _, m := range legs {
		if p := m.Profile; p != nil {
			if p.Label == "" {
				p.Label = kernel
			}
			agg.profiles = append(agg.profiles, p)
		}
	}
}

// CyclesTable lists each measured kernel's simulated cycles of the
// reported base and SLMS legs, summed over every machine/compiler
// configuration measured since the last ResetMeasurements. Cycles are
// deterministic, so after a full figure run the table is identical on
// every host and at any worker count.
func CyclesTable() string {
	kernelMeasurements.Lock()
	defer kernelMeasurements.Unlock()
	names := make([]string, 0, len(kernelMeasurements.m))
	for k := range kernelMeasurements.m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	header := fmt.Sprintf("%-12s %12s %12s", "kernel", "base cycles", "slms cycles")
	fmt.Fprintln(&b, header)
	fmt.Fprintln(&b, strings.Repeat("-", len(header)))
	for _, k := range names {
		agg := kernelMeasurements.m[k]
		fmt.Fprintf(&b, "%-12s %12d %12d\n", k, agg.baseCycles, agg.slmsCycles)
	}
	return b.String()
}

// SuiteProfiles returns every per-leg profile collected by profiled
// measurements, sorted by (kernel, machine, compiler, leg) so pprof
// output is deterministic. Empty unless SetModes turned Profile on
// before the figures ran.
func SuiteProfiles() []*prof.Profile {
	kernelMeasurements.Lock()
	defer kernelMeasurements.Unlock()
	var out []*prof.Profile
	for _, agg := range kernelMeasurements.m {
		out = append(out, agg.profiles...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Compiler != b.Compiler {
			return a.Compiler < b.Compiler
		}
		return a.Leg < b.Leg
	})
	return out
}

func reasonOf(out *pipeline.Outcome) string {
	for _, r := range out.Results {
		if !r.Applied && r.Reason != "" {
			return r.Reason
		}
	}
	return "not applied"
}

// speedupFigure builds a two-series speedup figure (with and without
// -O3) for a set of kernels on one machine. Kernels are measured
// concurrently through the shared worker pool (every measurement is
// self-contained and deterministic); rows come back in kernel order.
func speedupFigure(id, title string, kernels []Kernel, d *machine.Desc,
	o3, noO3 pipeline.Compiler) (*Figure, error) {
	f := &Figure{
		ID: id, Title: title,
		Metric: "speedup of SLMSed loop vs original (cycles), >1 is better",
		Series: []string{"-O3", "no -O3"},
	}
	rows, err := parallelRows(kernels, func(k Kernel) (Row, error) {
		out, err := measureCached(k, d, o3)
		if err != nil {
			return Row{}, err
		}
		out2, err := measureCached(k, d, noO3)
		if err != nil {
			return Row{}, err
		}
		row := Row{Kernel: k.Name, Value: out.Speedup, Value2: out2.Speedup, Applied: out.Applied}
		if !out.Applied {
			row.Value, row.Value2 = 1, 1
			row.Note = reasonOf(out)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	gm, n := f.geoMeanApplied()
	f.Notes = append(f.Notes, fmt.Sprintf("geometric-mean -O3 speedup over %d applied loops: %.3f", n, gm))
	return f, nil
}

// parallelRows measures every kernel concurrently through the shared
// bounded worker pool and returns the rows in input order. The first
// error (in input order) wins.
func parallelRows(kernels []Kernel, work func(Kernel) (Row, error)) ([]Row, error) {
	return parallelMap(kernels, work)
}

// Figure14 reproduces "Livermore & Linpack over GCC" (IA64, weak
// compiler, with and without -O3).
func Figure14() (*Figure, error) {
	ks := append(Suite("livermore"), Suite("linpack")...)
	return speedupFigure("Figure 14", "Livermore & Linpack over GCC (ia64-like VLIW, weak compiler)",
		ks, machine.IA64Like(), pipeline.WeakO3, pipeline.WeakNoO3)
}

// Figure15 reproduces "Stone and NAS over GCC".
func Figure15() (*Figure, error) {
	ks := append(Suite("stone"), Suite("nas")...)
	return speedupFigure("Figure 15", "Stone & NAS over GCC (ia64-like VLIW, weak compiler)",
		ks, machine.IA64Like(), pipeline.WeakO3, pipeline.WeakNoO3)
}

// Figure16 reproduces the retargetability claim behind the paper's
// "SLMS can close the gap between using and not using -O3": SLMS applied
// in front of a compiler that lacks machine-level modulo scheduling
// recovers much of the advantage a strong compiler gets from it. For
// each loop we report which fraction of the weak→strong cycle gap the
// source-level transformation recovers:
//
//	closure = (cyc(weak) - cyc(weak+SLMS)) / (cyc(weak) - cyc(strong))
//
// (The paper measures the analogous -O3 vs no-O3 gap on ICC; an
// instruction-accurate -O0 model stalls all code equally, so this
// reproduction uses the missing-backend-optimization gap instead — see
// EXPERIMENTS.md.)
func Figure16() (*Figure, error) {
	d := machine.IA64Like()
	f := &Figure{
		ID:     "Figure 16",
		Title:  "SLMS in front of a weak compiler closes the gap to a strong (machine-MS) compiler (ia64)",
		Metric: "gap closure = (cyc(weak) - cyc(weak+SLMS)) / (cyc(weak) - cyc(strong)); 1.0 = full gap",
		Series: []string{"gap closure"},
	}
	ks := append(Suite("livermore"), Suite("linpack")...)
	rows, err := parallelRows(ks, func(k Kernel) (Row, error) {
		outWeak, err := measureCached(k, d, pipeline.WeakO3)
		if err != nil {
			return Row{}, err
		}
		// The strong compiler's cycle count is the base leg of the
		// (kernel, ia64, StrongO3) measurement Figure 18 also needs, so
		// share it through the measurement memo instead of re-simulating.
		outStrong, err := measureCached(k, d, pipeline.StrongO3)
		if err != nil {
			return Row{}, err
		}
		mStrong := outStrong.Base
		gap := float64(outWeak.Base.Cycles - mStrong.Cycles)
		row := Row{Kernel: k.Name, Applied: outWeak.Applied}
		if !outWeak.Applied {
			row.Note = reasonOf(outWeak)
		}
		// Only meaningful when the strong compiler actually wins
		// something on this loop (>2% of the weak cycles).
		if gap > 0.02*float64(outWeak.Base.Cycles) {
			row.Value = float64(outWeak.Base.Cycles-outWeak.SLMS.Cycles) / gap
		} else {
			row.Note = "machine-level MS gains nothing on this loop"
			row.Applied = false
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

func newSeededEnv(k Kernel) *interp.Env {
	env := interp.NewEnv()
	if k.Setup != nil {
		k.Setup(env)
	}
	return env
}

// Figure17 reproduces "SLMS can improve performance over superscalar
// processor" (Pentium-like, weak compiler).
func Figure17() (*Figure, error) {
	ks := append(Suite("livermore"), Suite("linpack")...)
	f, err := speedupFigure("Figure 17", "Livermore & Linpack on a Pentium-like superscalar (GCC-like compiler)",
		ks, machine.PentiumLike(), pipeline.WeakO3, pipeline.WeakNoO3)
	if err != nil {
		return nil, err
	}
	f.Notes = append(f.Notes,
		"kernel10 has many loop variants; MVE register pressure causes spills on the 8-register machine (paper: 35 registers → spilling)")
	return f, nil
}

// Figure18 reproduces "Livermore & Linpack over ICC" (strong compiler
// with machine-level modulo scheduling).
func Figure18() (*Figure, error) {
	ks := append(Suite("livermore"), Suite("linpack")...)
	return speedupFigure("Figure 18", "Livermore & Linpack over ICC-like strong compiler (ia64, machine-level MS on)",
		ks, machine.IA64Like(), pipeline.StrongO3, pipeline.StrongNoO3)
}

// Figure19 reproduces "Stone and NAS over ICC".
func Figure19() (*Figure, error) {
	ks := append(Suite("stone"), Suite("nas")...)
	return speedupFigure("Figure 19", "Stone & NAS over ICC-like strong compiler (ia64)",
		ks, machine.IA64Like(), pipeline.StrongO3, pipeline.StrongNoO3)
}

// Figure20 reproduces "Livermore & Linpack + NAS over XLC" (Power4-like).
func Figure20() (*Figure, error) {
	ks := append(append(Suite("livermore"), Suite("linpack")...), Suite("nas")...)
	return speedupFigure("Figure 20", "Livermore, Linpack & NAS over XLC-like strong compiler (power4-like)",
		ks, machine.Power4Like(), pipeline.StrongO3, pipeline.StrongNoO3)
}

// Figure21 reproduces "Power dissipation for the ARM": energy ratio of
// the original vs the SLMSed loop on the ARM7-like core (Panalyzer
// substitute), >1 means SLMS saves energy.
func Figure21() (*Figure, error) {
	return armFigure("Figure 21", "Power dissipation improvement on ARM7-like core",
		"base energy / slms energy (>1 = SLMS reduces power)", true)
}

// Figure22 reproduces "Total number of cycles for the ARM".
func Figure22() (*Figure, error) {
	return armFigure("Figure 22", "Cycle-count improvement on ARM7-like core",
		"speedup (base cycles / slms cycles)", false)
}

func armFigure(id, title, metric string, energy bool) (*Figure, error) {
	d := machine.ARM7Like()
	f := &Figure{ID: id, Title: title, Metric: metric, Series: []string{"ratio"}}
	ks := append(Suite("livermore"), Suite("linpack")...)
	rows, err := parallelRows(ks, func(k Kernel) (Row, error) {
		out, err := measureCached(k, d, pipeline.WeakO3)
		if err != nil {
			return Row{}, err
		}
		row := Row{Kernel: k.Name, Applied: out.Applied}
		if out.Applied {
			if energy {
				row.Value = out.PowerRatio
			} else {
				row.Value = out.Speedup
			}
		} else {
			row.Value = 1
			row.Note = reasonOf(out)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	f.Notes = append(f.Notes,
		"the ARM core is single-issue: SLMS parallelism can only hide latencies, so gains are smaller and bad cases more frequent (apply selectively)")
	return f, nil
}

// CaseA reproduces the in-text kernel-8 bundle analysis: under the weak
// compiler the SLMSed loop body needs fewer bundles per iteration
// (paper: 23 → 16).
func CaseA() (*Figure, error) {
	k := Lookup("kernel8")
	d := machine.IA64Like()
	out, err := measureKernel8CaseA(*k, d)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "Case A",
		Title:  "kernel 8 bundle count, weak compiler (paper: 23 → 16 bundles)",
		Metric: "bundles per loop iteration (lower is better)",
		Series: []string{"original", "after SLMS"},
	}
	f.Rows = append(f.Rows, Row{
		Kernel:  "kernel8",
		Value:   hotLoopBundles(out.BaseArt, out.Base),
		Value2:  hotLoopBundles(out.SLMSArt, out.SLMS),
		Applied: out.Applied,
	})
	return f, nil
}

func measureKernel8CaseA(k Kernel, d *machine.Desc) (*pipeline.Outcome, error) {
	prog := source.MustParseCached(k.Source)
	return runExperiment(prog, d, pipeline.WeakO3, core.DefaultOptions(), k.Setup)
}

// CaseB reproduces the §9.2 floating-point-intensive loop: SLMS helps
// the strong compiler produce a denser schedule (paper: 5.8 → 4 bundles
// per iteration).
func CaseB() (*Figure, error) {
	src := `
		int n = 200;
		float X[210];
		for (k = 1; k < n; k++) {
			X[k] = X[k-1]*X[k-1]*X[k-1]*X[k-1]*X[k-1] +
				X[k+1]*X[k+1]*X[k+1]*X[k+1]*X[k+1];
		}
	`
	seed := seedArrays(map[string][]int{"X": {210}}, 99)
	// Keep values in (0,1) so fifth powers stay finite.
	prog := source.MustParse(src)
	out, err := runExperiment(prog, machine.IA64Like(), pipeline.StrongO3, core.DefaultOptions(), func(env *interp.Env) {
		seed(env)
		arr := env.Arrays["X"]
		for i := range arr.F {
			arr.F[i] = 0.2 + 0.6*arr.F[i]/2.0
		}
	})
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "Case B",
		Title:  "fp-intensive X[k] loop under the strong compiler (paper: 5.8 → 4 bundles/iter)",
		Metric: "cycles per iteration (lower is better)",
		Series: []string{"original", "after SLMS"},
	}
	f.Rows = append(f.Rows, Row{
		Kernel:  "xpow",
		Value:   cyclesPerIter(out.Base.Cycles, 199),
		Value2:  cyclesPerIter(out.SLMS.Cycles, 199),
		Applied: out.Applied,
	})
	return f, nil
}

func cyclesPerIter(c int64, iters int) float64 { return float64(c) / float64(iters) }

// hotLoopBundles returns the bundle count of the most-executed loop
// body (the kernels have one hot loop; transformed programs also contain
// a rarely-executed short-trip fallback copy).
func hotLoopBundles(art *pipeline.Artifact, m *sim.Metrics) float64 {
	best, bestExecs := 0, int64(-1)
	for id, s := range art.LoopSched {
		execs := int64(0)
		if id < len(m.ExecCounts) {
			execs = m.ExecCounts[id]
		}
		if execs > bestExecs {
			best, bestExecs = s.Bundles, execs
		}
	}
	return float64(best)
}

var figureGens = []struct {
	name string
	fn   func() (*Figure, error)
}{
	{"14", Figure14}, {"15", Figure15}, {"16", Figure16}, {"17", Figure17},
	{"18", Figure18}, {"19", Figure19}, {"20", Figure20},
	{"21", Figure21}, {"22", Figure22},
	{"caseA", CaseA}, {"caseB", CaseB},
	{"precision", FigurePrecision},
	{"optgap", FigureOptgap},
}

// AllFigures regenerates every evaluation figure in order. Figures are
// generated concurrently (each one's rows additionally fan out through
// the shared worker pool); the returned slice is always in figure
// order, and the first error in figure order wins.
func AllFigures() ([]*Figure, error) {
	obs.GaugeName("bench.workers").Set(int64(Workers()))
	// Figures run on plain goroutines: a generator is orchestration (it
	// waits on its rows' pool work), so it must not hold a pool token
	// itself or nested waits could exhaust the pool and deadlock. Only
	// leaf measurements draw tokens, keeping concurrency bounded.
	figs := make([]*Figure, len(figureGens))
	errs := make([]error, len(figureGens))
	var wg sync.WaitGroup
	for i, g := range figureGens {
		wg.Add(1)
		go func(i int, fn func() (*Figure, error)) {
			defer wg.Done()
			figs[i], errs[i] = fn()
		}(i, g.fn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", figureGens[i].name, err)
		}
	}
	return figs, nil
}

// FigureIDs lists the available figure identifiers.
func FigureIDs() []string {
	ids := []string{"14", "15", "16", "17", "18", "19", "20", "21", "22", "caseA", "caseB", "precision", "optgap"}
	sort.Strings(ids)
	return ids
}

// Summary regenerates every figure and condenses it to one line each —
// the reproduction's one-page scoreboard.
func Summary() (string, error) {
	figs, err := AllFigures()
	if err != nil {
		return "", err
	}
	return summarize(figs), nil
}

// summarize renders one scoreboard line per figure: a speedup or ratio
// figure's geometric mean over its applied loops, a case study's
// before -> after, and the headline note of the precision and optgap
// figures, whose values are edge counts and IIs, not ratios.
func summarize(figs []*Figure) string {
	var b strings.Builder
	b.WriteString("SLMS reproduction scoreboard (geometric means over applied loops)\n")
	b.WriteString(strings.Repeat("-", 66) + "\n")
	for _, f := range figs {
		switch f.ID {
		case "Case A", "Case B":
			fmt.Fprintf(&b, "%-10s %-42.42s %6.1f -> %.1f\n", f.ID, f.Title, f.Rows[0].Value, f.Rows[0].Value2)
		case "precision", "optgap":
			_, headline, _ := strings.Cut(f.Notes[0], "; ")
			fmt.Fprintf(&b, "%-10s %-42.42s %s\n", f.ID, f.Title, headline)
		default:
			gm, n := f.geoMeanApplied()
			fmt.Fprintf(&b, "%-10s %-42.42s %6.3f (%d loops)\n", f.ID, f.Title, gm, n)
		}
	}
	return b.String()
}

// ByID regenerates one figure.
func ByID(id string) (*Figure, error) {
	for _, g := range figureGens {
		if g.name == id {
			return g.fn()
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureIDs())
}
