package bench

import (
	"fmt"
	"strings"

	"slms/internal/backend"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/source"
)

// OptgapKernels are synthetic loops exercising the exact modulo
// scheduler: recurrence/resource interactions where the heuristic's
// height-priority placement is (or is close to) suboptimal, or where a
// schedule search at the heuristic's II exceeds the standard budget, so
// that only the heuristic's checked schedule settles the verdict. They
// give the optimality census gaps and witness-settled proofs to regress
// against. They are deliberately NOT part of Kernels(): the
// paper-figure suites and their committed baselines are unaffected;
// only the optimality census and figure consume them.
func OptgapKernels() []Kernel {
	return []Kernel{
		{
			// A floating recurrence crossed with independent memory
			// traffic: the heuristic lands on RecMII = 11, and a schedule
			// search at that II exceeds the standard budget — the census
			// proves it optimal only through the heuristic's witness.
			Name: "optrec", Suite: "optgap",
			Source: `float A[300]; float B[300]; float C[300]; float D[300];
for (i = 1; i < 200; i++) {
  A[i] = A[i-1] * 0.5 + B[i];
  C[i] = B[i] * 2.0 + D[i];
  D[i] = C[i] + 1.0;
}
`,
			Setup: seedArrays(map[string][]int{"A": {300}, "B": {300}, "C": {300}, "D": {300}}, 61),
		},
		{
			// Memory streams over two memory ports beside a chain carried
			// through C: the heuristic lands on RecMII = 14, another II
			// where a schedule search exceeds the standard budget.
			Name: "optmem", Suite: "optgap",
			Source: `float A[300]; float B[300]; float C[300]; float D[300]; float E[300];
for (i = 0; i < 200; i++) {
  A[i] = B[i] + C[i];
  D[i] = E[i] + B[i];
  C[i+1] = A[i] * 0.5;
}
`,
			Setup: seedArrays(map[string][]int{"A": {300}, "B": {300}, "C": {300}, "D": {300}, "E": {300}}, 62),
		},
		{
			// A long float chain folded back over distance 2: RecMII = 10,
			// and a schedule search at II=10 tries ten residue rows per
			// node — the standard budget runs out before it places them.
			Name: "optchain", Suite: "optgap",
			Source: `float A[300]; float B[300];
for (i = 2; i < 200; i++) {
  A[i] = (A[i-2] * 0.5 + B[i]) * 0.25 + B[i-1];
}
`,
			Setup: seedArrays(map[string][]int{"A": {300}, "B": {300}}, 63),
		},
		{
			// Found by random search over coupled float recurrences: the
			// height-priority heuristic places the F-recurrence chain so
			// that the memory rows at the recurrence-bound II are already
			// committed, and every eviction walk exhausts its budget; the
			// exact scheduler proves the lower II feasible (heuristic II=6,
			// minimal II=5 on the ia64-like machine).
			Name: "heurmiss", Suite: "optgap",
			Source: `float A[300]; float B[300]; float D[300]; float E[300]; float F[300];
for (i = 3; i < 200; i++) {
  F[i] = (E[i-3] + B[i-1]) * 0.25 + F[i-2];
  D[i] = D[i] + E[i-3] * 0.5;
  A[i] = D[i-2] + E[i-3] * 0.5;
}
`,
			Setup: seedArrays(map[string][]int{"A": {300}, "B": {300}, "D": {300}, "E": {300}, "F": {300}}, 64),
		},
		{
			// Second search find, same family, different binding structure
			// (a loop-invariant scalar feeding a store stream plus two
			// carried recurrences): heuristic II=8, proven minimum II=7.
			Name: "heurmiss2", Suite: "optgap",
			Source: `float B[300]; float D[300]; float E[300]; float F[300];
float t = 1.0;
for (i = 3; i < 200; i++) {
  B[i] = t * F[i-2];
  D[i] = (F[i-2] + E[i]) * 0.25 + D[i-1];
  E[i] = (F[i-3] * B[i-3]) * 0.25 + B[i];
}
`,
			Setup: seedArrays(map[string][]int{"B": {300}, "D": {300}, "E": {300}, "F": {300}}, 65),
		},
	}
}

// OptgapCorpus is every loop the optimality census runs over: the full
// paper-benchmark corpus plus the scheduler-targeted kernels.
func OptgapCorpus() []Kernel {
	return append(Kernels(), OptgapKernels()...)
}

// OptgapRow is one loop's heuristic-vs-exact scheduling verdict.
type OptgapRow struct {
	Kernel string `json:"kernel"`
	Suite  string `json:"suite"`
	// Loop numbers the counted innermost loop bodies of the kernel in
	// block order (1-based); Kernel+Loop is the census key.
	Loop    int    `json:"loop"`
	Verdict string `json:"verdict"` // a sched.Verdict* value
	HeurII  int    `json:"heur_ii,omitempty"`
	ExactII int    `json:"exact_ii,omitempty"`
	Gap     int    `json:"gap,omitempty"`
	// Cert is the human-readable certificate: why II−1 is impossible
	// (proven-optimal/gap) or why the verdict is undecided.
	Cert string `json:"cert,omitempty"`
}

// OptgapStat summarizes the optimality census. The optgap figure and
// slmsbench -optgap print it, and TestOptgapCensus pins its verdicts.
type OptgapStat struct {
	Loops         int `json:"loops"`
	ProvenOptimal int `json:"proven_optimal"`
	Gaps          int `json:"gaps"`
	ExactOnly     int `json:"exact_only"`
	Budget        int `json:"budget_exhausted"`
	Infeasible    int `json:"infeasible"`
	MaxGap        int `json:"max_gap"`
	// Rows carries the per-loop verdicts behind the totals.
	Rows []OptgapRow `json:"rows,omitempty"`
}

// OptgapCensus runs the heuristic scheduler over every counted
// innermost loop body of every kernel (on the ia64-like reference VLIW,
// the paper's primary machine) and proves each achieved II against the
// SDC-based exact scheduler at the given effort ("" = "standard").
// Pure static scheduling: no simulation, so the census is cheap and
// fully deterministic.
func OptgapCensus(kernels []Kernel, effort string) ([]OptgapRow, OptgapStat, error) {
	var rows []OptgapRow
	var sum OptgapStat
	if effort == "" {
		effort = "standard"
	}
	d := machine.IA64Like()
	cfg, err := ims.EffortConfig("", effort)
	if err != nil {
		return nil, sum, err
	}
	for _, k := range kernels {
		prog, err := source.Parse(k.Source)
		if err != nil {
			return nil, sum, fmt.Errorf("%s: %w", k.Name, err)
		}
		f, err := backend.Compile(prog)
		if err != nil {
			return nil, sum, fmt.Errorf("%s: %w", k.Name, err)
		}
		backend.LocalCSE(f)
		loop := 0
		for _, b := range f.Blocks {
			if !b.IsLoopBody || !b.Counted {
				continue
			}
			loop++
			res := ims.ScheduleWith(b, d, true, cfg)
			if res.Opt == nil {
				continue // empty body: nothing was scheduled or proven
			}
			o := res.Opt
			row := OptgapRow{
				Kernel: k.Name, Suite: k.Suite, Loop: loop,
				Verdict: o.Verdict,
				HeurII:  o.HeurII, ExactII: o.ExactII, Gap: o.Gap,
				Cert: o.Cert,
			}
			rows = append(rows, row)
			sum.Loops++
			switch o.Verdict {
			case sched.VerdictOptimal:
				sum.ProvenOptimal++
			case sched.VerdictGap:
				sum.Gaps++
				if o.Gap > sum.MaxGap {
					sum.MaxGap = o.Gap
				}
			case sched.VerdictExactOnly:
				sum.ExactOnly++
			case sched.VerdictInfeasible:
				sum.Infeasible++
			default:
				sum.Budget++
			}
		}
	}
	sum.Rows = rows
	return rows, sum, nil
}

// FigureOptgap renders the census as the "optgap" figure: per loop, the
// heuristic's II next to the proven-minimal II, annotated with the
// optimality verdict.
func FigureOptgap() (*Figure, error) {
	rows, sum, err := OptgapCensus(OptgapCorpus(), "standard")
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "optgap",
		Title:  "Optimality gap: heuristic II vs proven-minimal II (exact SDC scheduler, ia64)",
		Metric: "initiation interval (lower is better; equal = heuristic proven optimal)",
		Series: []string{"heuristic", "exact"},
	}
	for _, r := range rows {
		name := r.Kernel
		if r.Loop > 1 {
			name = fmt.Sprintf("%s#%d", r.Kernel, r.Loop)
		}
		note := ""
		switch r.Verdict {
		case sched.VerdictGap:
			note = fmt.Sprintf("gap %d", r.Gap)
		case sched.VerdictExactOnly:
			note = "heuristic found no schedule"
		case sched.VerdictBudget:
			note = "budget exhausted"
		case sched.VerdictInfeasible:
			note = "infeasible"
		}
		f.Rows = append(f.Rows, Row{
			Kernel:  name,
			Value:   float64(r.HeurII),
			Value2:  float64(r.ExactII),
			Applied: r.Verdict == sched.VerdictOptimal || r.Verdict == sched.VerdictGap,
			Note:    note,
		})
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("corpus: %d loops; %d proven optimal, %d with a gap (max %d), %d exact-only, %d budget-exhausted, %d infeasible",
			sum.Loops, sum.ProvenOptimal, sum.Gaps, sum.MaxGap, sum.ExactOnly, sum.Budget, sum.Infeasible))
	return f, nil
}

// OptgapTable renders the census as an aligned text table (the
// slmsbench -optgap report).
func OptgapTable(rows []OptgapRow, sum OptgapStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine-level optimality census (%d loops, ia64-like VLIW)\n", sum.Loops)
	fmt.Fprintf(&b, "%-14s %4s %8s %9s %5s  %s\n", "kernel", "loop", "heur II", "exact II", "gap", "verdict")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %4d %8d %9d %5d  %s\n",
			r.Kernel, r.Loop, r.HeurII, r.ExactII, r.Gap, r.Verdict)
	}
	fmt.Fprintf(&b, "proven optimal: %d/%d; gaps: %d (max %d); exact-only: %d; budget-exhausted: %d; infeasible: %d\n",
		sum.ProvenOptimal, sum.Loops, sum.Gaps, sum.MaxGap, sum.ExactOnly, sum.Budget, sum.Infeasible)
	return b.String()
}
