package bench

import (
	"fmt"
	"strings"

	"slms/internal/core"
	"slms/internal/obs"
	"slms/internal/source"
)

// PrecisionKernels are synthetic loops exercising the exact dependence
// solver: each one is conservative-unknown (or carries an unrealizable
// distance) under the legacy subscript test and is decided by the
// Omega-lite solver. They are deliberately NOT part of Kernels(), so
// the paper-figure suites and their committed baselines are unaffected;
// only the precision census and figure consume them.
func PrecisionKernels() []Kernel {
	return []Kernel{
		{
			Name: "stride2", Suite: "precision",
			Source: `float A[256]; float B[256];
for (i = 0; i < 100; i++) {
  A[2*i] = A[i] * 0.5 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"A": {256}, "B": {256}}, 41),
		},
		{
			Name: "symoff", Suite: "precision",
			Source: `int m = 4; float A[128]; float B[128];
for (i = 0; i < 100; i++) {
  A[i+m+1] = A[i+m] * 0.5 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"A": {128}, "B": {128}}, 42),
		},
		{
			Name: "tripkill", Suite: "precision",
			Source: `float A[512]; float B[512];
for (i = 0; i < 100; i++) {
  A[i+200] = A[i] * 0.9 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"A": {512}, "B": {512}}, 43),
		},
		{
			Name: "tripkill_sym", Suite: "precision",
			Source: `int n = 100; float A[512]; float B[512];
for (i = 0; i < n; i++) {
  A[i+n] = A[i] * 0.9 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"A": {512}, "B": {512}}, 44),
		},
		{
			Name: "parity", Suite: "precision",
			Source: `float A[256]; float B[256];
for (i = 0; i < 100; i++) {
  A[2*i+1] = A[2*i] * 0.8 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"A": {256}, "B": {256}}, 45),
		},
		{
			// A secondary counter walking in lock-step with the loop: the
			// solver promotes A[j]/A[j+2] to closed form over the iteration
			// counter, where the legacy test demotes them to unknown.
			Name: "indsub", Suite: "precision",
			Source: `int j; float A[200]; float B[100];
for (i = 0; i < 100; i++) {
  B[i] = A[j] + A[j+2];
  A[j+2] = B[i] * 0.5;
  j = j + 1;
}
`,
			Setup: seedArrays(map[string][]int{"A": {200}, "B": {100}}, 48),
		},
		{
			// Legacy analysis carries the distance-2 recurrence and
			// schedules at II=2; the solver proves the loop runs only two
			// iterations, so no distance-2 pair is realizable and II=1.
			Name: "tripshort", Suite: "precision",
			Source: `float A[200]; float B[200]; float t; float u; float v;
for (i = 2; i < 4; i++) {
  t = A[i-2] * 0.5;
  u = t + B[i];
  v = u * 1.5;
  A[i] = v;
}
`,
			Setup: seedArrays(map[string][]int{"A": {200}, "B": {200}}, 47),
		},
		{
			Name: "guarded", Suite: "precision",
			Source: `int m; float A[512]; float B[512];
if (m >= 200) {
  for (i = 0; i < 100; i++) {
    A[i+m] = A[i] * 0.7 + B[i];
  }
}
`,
			Setup: seedArrays(map[string][]int{"A": {512}, "B": {512}}, 46),
		},
	}
}

// PrecisionCorpus is every loop the precision census runs over: the
// full paper-benchmark corpus plus the solver-targeted kernels.
func PrecisionCorpus() []Kernel {
	return append(Kernels(), PrecisionKernels()...)
}

// PrecisionRow is one kernel's legacy-vs-exact dependence comparison.
type PrecisionRow struct {
	Kernel string `json:"kernel"`
	Suite  string `json:"suite"`
	// Unknown dependence edges summed over the kernel's loops, with the
	// solver disabled (legacy subscript test) and enabled.
	UnknownLegacy int `json:"unknown_legacy"`
	UnknownExact  int `json:"unknown_exact"`
	// Solver precision counters summed over the kernel's loops.
	Pairs    int `json:"pairs"`
	Resolved int `json:"resolved"`
	Killed   int `json:"killed"`
	Promoted int `json:"promoted"`
	// Best II per mode; 0 means the loop did not schedule.
	IILegacy int64 `json:"ii_legacy"`
	IIExact  int64 `json:"ii_exact"`
	// NewlyPipelined: scheduled only with the solver. LowerII: scheduled
	// in both modes, strictly lower II with the solver.
	NewlyPipelined bool `json:"newly_pipelined"`
	LowerII        bool `json:"lower_ii"`
	// skipReason is the first skipped loop's reason with the solver.
	skipReason string
}

// PrecisionStat summarizes the census. The precision figure and
// slmsbench -census print it, and TestPrecisionGate holds the exact
// solver's unknown edges below the legacy test's.
type PrecisionStat struct {
	Kernels        int `json:"kernels"`
	Pairs          int `json:"pairs"`
	UnknownLegacy  int `json:"unknown_edges_legacy"`
	UnknownExact   int `json:"unknown_edges_exact"`
	ResolvedPairs  int `json:"resolved_pairs"`
	TripKilled     int `json:"trip_killed"`
	Promoted       int `json:"promoted_inductions"`
	NewlyPipelined int `json:"loops_newly_pipelined"`
	LowerII        int `json:"loops_lower_ii"`
}

// PrecisionCensus transforms every kernel twice — solver disabled
// (legacy conservative subscript test) and enabled — and tabulates the
// dependence-precision delta: unknown edges before/after, solver
// resolution counters, and which loops only pipeline (or reach a
// strictly lower II) with exact analysis. Pure static analysis: no
// simulation, so the census is cheap and fully deterministic.
func PrecisionCensus(kernels []Kernel) ([]PrecisionRow, PrecisionStat, error) {
	var rows []PrecisionRow
	var sum PrecisionStat
	for _, k := range kernels {
		legacy := core.DefaultOptions()
		legacy.NoSolver = true
		rl, err := transformStats(k.Name, k.Source, legacy)
		if err != nil {
			return nil, sum, fmt.Errorf("%s (legacy): %w", k.Name, err)
		}
		re, err := transformStats(k.Name, k.Source, core.DefaultOptions())
		if err != nil {
			return nil, sum, fmt.Errorf("%s (exact): %w", k.Name, err)
		}
		row := PrecisionRow{
			Kernel: k.Name, Suite: k.Suite,
			UnknownLegacy: rl.unknown, UnknownExact: re.unknown,
			Pairs: re.pairs, Resolved: re.resolved, Killed: re.killed, Promoted: re.promoted,
			IILegacy: rl.bestII, IIExact: re.bestII,
			NewlyPipelined: re.bestII > 0 && rl.bestII == 0,
			LowerII:        re.bestII > 0 && rl.bestII > 0 && re.bestII < rl.bestII,
			skipReason:     re.skipReason,
		}
		rows = append(rows, row)
		sum.Kernels++
		sum.Pairs += row.Pairs
		sum.UnknownLegacy += row.UnknownLegacy
		sum.UnknownExact += row.UnknownExact
		sum.ResolvedPairs += row.Resolved
		sum.TripKilled += row.Killed
		sum.Promoted += row.Promoted
		if row.NewlyPipelined {
			sum.NewlyPipelined++
		}
		if row.LowerII {
			sum.LowerII++
		}
	}
	return rows, sum, nil
}

// modeStats aggregates one transform mode over a kernel's loops.
type modeStats struct {
	unknown, pairs, resolved, killed, promoted int
	bestII                                     int64
	skipReason                                 string // first skipped loop's
}

// transformStats transforms src, the kernel name, under opts and sums
// its loops' precision counters. With tracing on it is one span tree,
// rooted at "precision:<name>".
func transformStats(name, src string, opts core.Options) (modeStats, error) {
	var st modeStats
	prog := source.MustParse(src)
	sp := obs.Root("precision:"+name).Attr("kernel", name).Attr("solver", !opts.NoSolver)
	defer sp.End()
	_, results, err := core.TransformProgramSpan(sp, prog, opts)
	if err != nil {
		return st, err
	}
	for _, res := range results {
		if res.Applied && (st.bestII == 0 || res.II < st.bestII) {
			st.bestII = res.II
		}
		if !res.Applied && st.skipReason == "" {
			st.skipReason = res.Reason
		}
		if res.Dep == nil {
			continue
		}
		st.unknown += res.Dep.UnknownEdges()
		p := res.Dep.Precision
		st.pairs += p.Pairs
		st.resolved += p.Resolved
		st.killed += p.Killed
		st.promoted += p.Promoted
	}
	return st, nil
}

// FigurePrecision renders the census as the "precision" figure: per
// kernel, unknown dependence edges under the legacy test vs the exact
// solver, annotated with the pipelining consequence.
func FigurePrecision() (*Figure, error) {
	rows, sum, err := PrecisionCensus(PrecisionCorpus())
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "precision",
		Title:  "Dependence precision: unknown edges, legacy test vs exact solver",
		Metric: "unknown dependence edges (lower is better)",
		Series: []string{"legacy", "exact"},
	}
	for _, r := range rows {
		note := ""
		switch {
		case r.NewlyPipelined:
			note = fmt.Sprintf("newly pipelined (II=%d)", r.IIExact)
		case r.LowerII:
			note = fmt.Sprintf("II %d -> %d", r.IILegacy, r.IIExact)
		case r.Resolved > 0 || r.Killed > 0:
			note = fmt.Sprintf("resolved %d pair(s), killed %d", r.Resolved, r.Killed)
		case r.IIExact == 0:
			note = r.skipReason
		}
		f.Rows = append(f.Rows, Row{
			Kernel:  r.Kernel,
			Value:   float64(r.UnknownLegacy),
			Value2:  float64(r.UnknownExact),
			Applied: r.IIExact > 0,
			Note:    note,
		})
	}
	resolvedPct := 0.0
	if sum.UnknownLegacy > 0 {
		resolvedPct = 100 * float64(sum.UnknownLegacy-sum.UnknownExact) / float64(sum.UnknownLegacy)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("corpus: %d kernels, %d subscript pairs; unknown edges %d -> %d (%.0f%% resolved)",
			sum.Kernels, sum.Pairs, sum.UnknownLegacy, sum.UnknownExact, resolvedPct),
		fmt.Sprintf("%d loop(s) newly pipelined, %d at strictly lower II; %d distance(s) trip-killed, %d induction subscript(s) promoted",
			sum.NewlyPipelined, sum.LowerII, sum.TripKilled, sum.Promoted),
	)
	return f, nil
}

// PrecisionTable renders the census as an aligned text table (the
// slmsbench -census companion for dependence precision).
func PrecisionTable(rows []PrecisionRow, sum PrecisionStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependence precision census (%d kernels)\n", sum.Kernels)
	fmt.Fprintf(&b, "%-14s %8s %8s %9s %7s %10s\n", "kernel", "unk-old", "unk-new", "resolved", "killed", "II old->new")
	for _, r := range rows {
		ii := "-"
		if r.IILegacy > 0 || r.IIExact > 0 {
			ii = fmt.Sprintf("%d->%d", r.IILegacy, r.IIExact)
		}
		fmt.Fprintf(&b, "%-14s %8d %8d %9d %7d %10s\n",
			r.Kernel, r.UnknownLegacy, r.UnknownExact, r.Resolved, r.Killed, ii)
	}
	fmt.Fprintf(&b, "total unknown edges: %d -> %d; %d newly pipelined, %d lower II\n",
		sum.UnknownLegacy, sum.UnknownExact, sum.NewlyPipelined, sum.LowerII)
	return b.String()
}
