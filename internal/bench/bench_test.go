package bench

import (
	"strings"
	"testing"

	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/slc"
	"slms/internal/source"
)

func TestKernelCountMatchesPaper(t *testing.T) {
	if n := len(Kernels()); n != 31 {
		t.Errorf("kernel count = %d, want 31 (\"out of 31 loops that were tested\")", n)
	}
}

func TestKernelsParseAndRun(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			prog, err := source.Parse(k.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			env := interp.NewEnv()
			if k.Setup != nil {
				k.Setup(env)
			}
			if err := interp.Run(prog, env); err != nil {
				t.Fatalf("interp: %v", err)
			}
		})
	}
}

// Every kernel must survive the full SLMS + compile + simulate matrix
// with results identical to the untransformed run (RunExperiment checks
// this internally).
func TestKernelsThroughPipeline(t *testing.T) {
	d := machine.IA64Like()
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			out, err := measure(k, d, pipeline.WeakO3)
			if err != nil {
				t.Fatalf("measure: %v", err)
			}
			if out.Base.Cycles <= 0 || out.SLMS.Cycles <= 0 {
				t.Fatalf("degenerate cycle counts: %+v", out)
			}
			t.Logf("weak-O3 ia64: speedup=%.3f applied=%v", out.Speedup, out.Applied)
		})
	}
}

func TestLookupAndSuites(t *testing.T) {
	if Lookup("kernel8") == nil || Lookup("nosuch") != nil {
		t.Error("Lookup misbehaves")
	}
	total := 0
	for _, s := range []string{"livermore", "linpack", "nas", "stone"} {
		n := len(Suite(s))
		if n == 0 {
			t.Errorf("suite %s is empty", s)
		}
		total += n
	}
	if total != len(Kernels()) {
		t.Errorf("suites do not partition the kernels")
	}
}

func TestFigure14ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	f, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f.Table())
	applied, helped := 0, 0
	for _, r := range f.Rows {
		if r.Applied {
			applied++
			if r.Value > 1.0 {
				helped++
			}
		}
	}
	if applied < 10 {
		t.Errorf("SLMS applied to only %d Livermore+Linpack loops", applied)
	}
	// The paper's headline: the majority of loops speed up on the weak
	// compiler.
	if helped*2 < applied {
		t.Errorf("SLMS helped only %d of %d applied loops on the weak compiler", helped, applied)
	}
}

func TestCaseAKernel8Bundles(t *testing.T) {
	f, err := CaseA()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f.Table())
	r := f.Rows[0]
	if !r.Applied {
		t.Fatal("SLMS not applied to kernel 8")
	}
	if r.Value2 >= r.Value {
		t.Errorf("SLMS should reduce kernel-8 bundles/iter: %0.f → %0.f (paper: 23 → 16)", r.Value, r.Value2)
	}
}

func TestFilterReproducesSwapExample(t *testing.T) {
	// The §4 swap loop is filtered; a compute-heavy loop is not.
	src := `
		float X[20][20];
		int i1 = 1; int j1 = 2;
		float CT = 0.0;
		for (k = 0; k < 20; k++) {
			CT = X[k][i1];
			X[k][i1] = X[k][j1] * 2.0;
			X[k][j1] = CT;
		}
	`
	_, results, err := core.TransformProgram(source.MustParse(src), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Applied {
			t.Error("swap loop must be filtered (memory-ref ratio ≥ 0.85)")
		}
	}
}

func TestDeterministicSeeding(t *testing.T) {
	k := Lookup("kernel1")
	e1, e2 := interp.NewEnv(), interp.NewEnv()
	k.Setup(e1)
	k.Setup(e2)
	if d := interp.Compare(e1, e2, interp.CompareOpts{}); len(d) != 0 {
		t.Errorf("seeding is not deterministic: %v", d)
	}
}

func TestCensusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("census is slow")
	}
	rows, err := Census()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 31 {
		t.Fatalf("census rows = %d, want 31", len(rows))
	}
	both, onlyBefore := 0, 0
	for _, r := range rows {
		if r.IMSBefore && r.IMSAfter {
			both++
		} else if r.IMSBefore {
			onlyBefore++
		}
	}
	// The paper's shape: machine MS keeps firing on the large majority of
	// SLMSed loops, and SLMS prevents it on a couple (register pressure).
	if both < 25 {
		t.Errorf("MS before+after on only %d loops (paper: 26 of 31)", both)
	}
	if onlyBefore == 0 {
		t.Error("expected at least one loop where SLMS stops machine MS (paper: 2)")
	}
	t.Logf("\n%s", CensusTable(rows))
}

func TestFig17Kernel10Regresses(t *testing.T) {
	// The paper's specific Pentium story: kernel 10's many loop variants
	// make MVE spill on the 8-register machine.
	k := Lookup("kernel10")
	out, err := measure(*k, machine.PentiumLike(), pipeline.WeakO3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Applied {
		t.Fatal("SLMS not applied to kernel10")
	}
	if out.Speedup >= 1.0 {
		t.Errorf("kernel10 should regress on the small register file, got %.3f", out.Speedup)
	}
	if out.SLMSArt.Alloc.SpilledRegs == 0 {
		t.Error("expected the SLMSed kernel10 to spill registers")
	}
	t.Logf("kernel10 pentium: speedup=%.3f spilled=%d maxLiveFP=%d",
		out.Speedup, out.SLMSArt.Alloc.SpilledRegs, out.SLMSArt.Alloc.MaxLiveFloat)
}

func TestARMPowerCyclesCorrelate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Figures 21/22: per-kernel power and cycle ratios must agree in
	// direction on the clear cases (both >1.05 or both <0.95).
	d := machine.ARM7Like()
	agree, disagree := 0, 0
	for _, k := range append(Suite("livermore"), Suite("linpack")...) {
		out, err := measure(k, d, pipeline.WeakO3)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Applied {
			continue
		}
		c, p := out.Speedup, out.PowerRatio
		switch {
		case c > 1.05 && p > 1.0, c < 0.95 && p < 1.0:
			agree++
		case c > 1.05 && p < 0.95, c < 0.95 && p > 1.05:
			disagree++
		}
	}
	if disagree > agree/3 {
		t.Errorf("power and cycles diverge too often: agree=%d disagree=%d", agree, disagree)
	}
	t.Logf("correlation: agree=%d disagree=%d", agree, disagree)
}

// The extended Livermore kernels must also survive the whole
// SLMS + SLC + compile + simulate matrix with identical results.
func TestExtendedKernelsThroughPipeline(t *testing.T) {
	d := machine.IA64Like()
	for _, k := range KernelsExtended() {
		if k.Suite != "livermore-ext" {
			continue
		}
		k := k
		t.Run(k.Name, func(t *testing.T) {
			// Interpreter run first.
			prog := source.MustParse(k.Source)
			env := interp.NewEnv()
			k.Setup(env)
			if err := interp.Run(prog, env); err != nil {
				t.Fatalf("interp: %v", err)
			}
			// Then the measured experiment (equivalence checked inside).
			out, err := measure(k, d, pipeline.WeakO3)
			if err != nil {
				t.Fatalf("measure: %v", err)
			}
			t.Logf("weak-O3 ia64: speedup=%.3f applied=%v", out.Speedup, out.Applied)
			// kernel13 STORES through an indirect subscript: the unknown
			// dependence must stop SLMS. (kernel14 only LOADS indirectly
			// from a read-only array, which is safe to schedule.)
			if k.Name == "kernel13" && out.Applied {
				t.Errorf("%s stores through an indirect subscript; SLMS must refuse", k.Name)
			}
		})
	}
}

// kernel19 (downward) goes through the SLC driver's mirroring and must
// stay semantically identical.
func TestExtendedKernel19SLC(t *testing.T) {
	var k *Kernel
	for _, kk := range KernelsExtended() {
		if kk.Name == "kernel19" {
			kk := kk
			k = &kk
		}
	}
	if k == nil {
		t.Fatal("kernel19 missing")
	}
	prog := source.MustParse(k.Source)
	res, err := slc.Optimize(prog, slc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		t.Logf("%s", a)
	}
	e1, e2 := interp.NewEnv(), interp.NewEnv()
	k.Setup(e1)
	k.Setup(e2)
	if err := interp.Run(prog, e1); err != nil {
		t.Fatal(err)
	}
	if err := interp.Run(res.Program, e2); err != nil {
		t.Fatalf("slc output: %v", err)
	}
	if d := interp.Compare(e1, e2, interp.CompareOpts{FloatTol: 1e-6}); len(d) > 0 {
		t.Fatalf("mismatch: %v", d)
	}
}

// TestSummaryHeadlines: the scoreboard reports the precision and
// optgap figures by their headline notes, not by a geometric mean of
// edge counts or IIs.
func TestSummaryHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	figs, err := AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"precision": "unknown edges 9 -> 0 (100% resolved)",
		"optgap":    "33 proven optimal, 3 with a gap (max 1)",
	}
	for _, line := range strings.Split(summarize(figs), "\n") {
		id, _, _ := strings.Cut(line, " ")
		w, ok := want[id]
		if !ok {
			continue
		}
		delete(want, id)
		if !strings.Contains(line, w) {
			t.Errorf("summary line %q lacks the headline %q", line, w)
		}
		if strings.Contains(line, "loops)") {
			t.Errorf("summary line %q reports a geometric mean", line)
		}
	}
	for id := range want {
		t.Errorf("summary has no %s line", id)
	}
}

// TestAllFiguresGenerate exercises every figure, ablation and special
// report end to end (skipped in -short mode; each one internally
// re-verifies result equivalence for every measurement).
func TestAllFiguresGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation is slow")
	}
	figs, err := AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 13 {
		t.Errorf("expected 13 figures, got %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Errorf("%s has no rows", f.ID)
		}
		if f.Table() == "" {
			t.Errorf("%s renders empty", f.ID)
		}
	}
	abls, err := AllAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(abls) != 5 {
		t.Errorf("expected 5 ablations, got %d", len(abls))
	}
	ext, err := Extensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Rows) != 3 {
		t.Errorf("extensions: %d rows", len(ext.Rows))
	}
	// The §10 headline: the pipelined while-loop beats the unrolled one.
	var unroll, pipe float64
	for _, r := range ext.Rows {
		switch r.Kernel {
		case "while-unroll":
			unroll = r.Value
		case "while-pipe":
			pipe = r.Value
		}
	}
	if pipe <= unroll {
		t.Errorf("§10: pipelined (%.3f) should beat unrolled (%.3f)", pipe, unroll)
	}
	if _, err := ByID("nosuch"); err == nil {
		t.Error("ByID should reject unknown ids")
	}
	for _, id := range FigureIDs() {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
}
