package bench

import (
	"fmt"
	"math"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/source"
)

// Ablations quantify the design choices the paper (and this
// reproduction) makes: the §4 bad-case filter, the choice between MVE
// and scalar expansion, the short-trip guard, and the strong compiler's
// memory disambiguation. Each returns a Figure so cmd/slmsbench and the
// benchmarks can render them uniformly.

// AblationFilter measures what the §4 filter buys: the per-loop speedup
// with the filter disabled (value) vs enabled (value2). Loops the filter
// skips keep speedup 1.0 when enabled; if the filter is well calibrated,
// the enabled column's geometric mean is at least the disabled one.
func AblationFilter() (*Figure, error) {
	d := machine.IA64Like()
	f := &Figure{
		ID:     "Ablation A1",
		Title:  "the §4 bad-case filter (weak compiler, ia64)",
		Metric: "speedup without filter vs with filter (filtered loops pinned to 1.0)",
		Series: []string{"no filter", "filter"},
	}
	for _, k := range Kernels() {
		prog := source.MustParse(k.Source)
		off := core.DefaultOptions()
		off.Filter = false
		outOff, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, off, k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		outOn, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, core.DefaultOptions(), k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		von, voff := 1.0, 1.0
		if outOff.Applied {
			voff = outOff.Speedup
		}
		if outOn.Applied {
			von = outOn.Speedup
		}
		note := ""
		switch {
		case outOff.Applied && !outOn.Applied:
			note = "filtered"
		case !outOff.Applied && !outOn.Applied:
			note = reasonOf(outOn)
		}
		f.Rows = append(f.Rows, Row{Kernel: k.Name, Value: voff, Value2: von,
			Applied: outOff.Applied || outOn.Applied, Note: note})
	}
	return f, nil
}

// AblationExpansion compares the two §5-step-6c mechanisms on every loop
// where SLMS applies: MVE (kernel unrolling + register renaming) vs
// scalar expansion (temporary arrays). The paper reports "SLMS was
// tested with and without source level MVE, the presented results show
// the best time obtained" — this ablation is that comparison, made
// explicit.
func AblationExpansion() (*Figure, error) {
	d := machine.IA64Like()
	f := &Figure{
		ID:     "Ablation A2",
		Title:  "MVE vs scalar expansion (weak compiler, ia64)",
		Metric: "speedup with MVE vs with scalar expansion",
		Series: []string{"MVE", "scalar-exp"},
	}
	for _, k := range Kernels() {
		prog := source.MustParse(k.Source)
		mve := core.DefaultOptions()
		arr := core.DefaultOptions()
		arr.Expansion = core.ExpandScalar
		outM, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, mve, k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		outA, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, arr, k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		if !outM.Applied && !outA.Applied {
			f.Rows = append(f.Rows, Row{Kernel: k.Name, Value: 1, Value2: 1, Note: reasonOf(outM)})
			continue
		}
		f.Rows = append(f.Rows, Row{Kernel: k.Name, Value: outM.Speedup, Value2: outA.Speedup, Applied: true})
	}
	f.Notes = append(f.Notes,
		"MVE keeps variants in registers (paper's default); scalar expansion trades register pressure for memory traffic")
	return f, nil
}

// AblationTags measures what the strong compiler's affine memory
// disambiguation is worth: IMS with the front end's dependence tags vs
// IMS forced to treat same-array accesses as conflicting.
func AblationTags() (*Figure, error) {
	d := machine.IA64Like()
	withTags := pipeline.StrongO3
	noTags := pipeline.StrongO3
	noTags.Name = "strong, no disambiguation"
	noTags.Tags = false
	f := &Figure{
		ID:     "Ablation A3",
		Title:  "memory disambiguation in the strong compiler (ia64, no SLMS)",
		Metric: "cycles without tags / cycles with tags (>1 = tags help)",
		Series: []string{"ratio"},
	}
	for _, k := range Kernels() {
		prog := source.MustParse(k.Source)
		env1 := newSeededEnv(k)
		m1, _, err := pipeline.Run(prog, d, withTags, env1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		env2 := newSeededEnv(k)
		m2, _, err := pipeline.Run(prog, d, noTags, env2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		f.Rows = append(f.Rows, Row{Kernel: k.Name,
			Value: float64(m2.Cycles) / float64(m1.Cycles), Applied: true})
	}
	return f, nil
}

// AblationGuard measures the cost of the short-trip guard + fallback on
// long-trip loops (where the guard is pure overhead) by comparing the
// guarded SLMS output against NoGuard output.
func AblationGuard() (*Figure, error) {
	d := machine.IA64Like()
	f := &Figure{
		ID:     "Ablation A4",
		Title:  "short-trip guard overhead (weak compiler, ia64)",
		Metric: "cycles(guarded) / cycles(unguarded); ~1.0 = the guard is free on long trips",
		Series: []string{"ratio"},
	}
	for _, k := range Kernels() {
		prog := source.MustParse(k.Source)
		guarded := core.DefaultOptions()
		bare := core.DefaultOptions()
		bare.NoGuard = true
		outG, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, guarded, k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		if !outG.Applied {
			f.Rows = append(f.Rows, Row{Kernel: k.Name, Value: 1, Note: reasonOf(outG)})
			continue
		}
		outB, err := runExperiment(k.Name, prog, d, pipeline.WeakO3, bare, k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		f.Rows = append(f.Rows, Row{Kernel: k.Name,
			Value:   float64(outG.SLMS.Cycles) / float64(outB.SLMS.Cycles),
			Applied: true})
	}
	return f, nil
}

// AblationWindow sweeps the weak compiler's scheduling window and
// reports the SLMS geometric-mean speedup at each width — how the value
// of SLMS depends on the final compiler's scheduling quality.
func AblationWindow() (*Figure, error) {
	d := machine.IA64Like()
	f := &Figure{
		ID:     "Ablation A5",
		Title:  "weak-compiler scheduling window vs SLMS value (ia64)",
		Metric: "geometric-mean SLMS speedup over Livermore+Linpack at each window",
		Series: []string{"geomean"},
	}
	ks := append(Suite("livermore"), Suite("linpack")...)
	for _, w := range []int{4, 8, 16, 0} {
		cc := pipeline.WeakO3
		cc.Window = w
		prod, n := 1.0, 0
		for _, k := range ks {
			prog := source.MustParse(k.Source)
			out, err := runExperiment(k.Name, prog, d, cc, core.DefaultOptions(), k.Setup)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			if out.Applied && out.Speedup > 0 {
				prod *= out.Speedup
				n++
			}
		}
		name := fmt.Sprintf("window=%d", w)
		if w == 0 {
			name = "window=∞"
		}
		f.Rows = append(f.Rows, Row{Kernel: name, Value: math.Pow(prod, 1/float64(n)), Applied: true})
	}
	return f, nil
}

// AllAblations runs every ablation.
func AllAblations() ([]*Figure, error) {
	gens := []func() (*Figure, error){
		AblationFilter, AblationExpansion, AblationTags, AblationGuard, AblationWindow,
	}
	var out []*Figure
	for _, g := range gens {
		f, err := g()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
