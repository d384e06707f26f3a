package analysis_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"slms/internal/analysis"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/memo"
	"slms/internal/source"
)

// corpusConfigs are the transformation configurations every corpus
// program is verified under.
func corpusConfigs() map[string]core.Options {
	mve := core.DefaultOptions()
	noFilter := core.DefaultOptions()
	noFilter.Filter = false
	arr := noFilter
	arr.Expansion = core.ExpandScalar
	noGuard := noFilter
	noGuard.NoGuard = true
	spec := noFilter
	spec.Speculate = true
	return map[string]core.Options{
		"default":      mve,
		"nofilter":     noFilter,
		"scalarexpand": arr,
		"noguard":      noGuard,
		"speculate":    spec,
	}
}

// requireAllProved lints src under every configuration and fails the
// test on any refutation, any error diagnostic, or any transformed loop
// the static checker could not prove.
func requireAllProved(t *testing.T, name, src string) {
	t.Helper()
	for cfg, opts := range corpusConfigs() {
		rep, err := analysis.LintSource(name, src, analysis.LintOptions{Core: opts})
		if err != nil {
			t.Fatalf("%s [%s]: lint: %v", name, cfg, err)
		}
		if rep.HasErrors() {
			t.Errorf("%s [%s]: refutation or mismatch:\n%s", name, cfg, rep.Render(false))
			continue
		}
		s := rep.Summary
		if s.Refuted != 0 || s.Inconclusive != 0 {
			t.Errorf("%s [%s]: %d refuted, %d inconclusive of %d applied:\n%s",
				name, cfg, s.Refuted, s.Inconclusive, s.Applied, rep.Render(false))
		}
		if s.Proved != s.Applied {
			t.Errorf("%s [%s]: proved %d of %d applied loops", name, cfg, s.Proved, s.Applied)
		}
	}
}

// TestCorpusTestdata verifies every SLMS application over the golden
// test programs: zero refutations, every applied loop statically
// proved.
func TestCorpusTestdata(t *testing.T) {
	files, err := filepath.Glob("../core/testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			requireAllProved(t, filepath.Base(f), string(text))
		})
	}
}

// TestCorpusBenchKernels verifies the full paper benchmark suite.
func TestCorpusBenchKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, k := range bench.Kernels() {
		t.Run(k.Suite+"/"+k.Name, func(t *testing.T) {
			requireAllProved(t, k.Name, k.Source)
		})
	}
}

// TestCorpusExamples extracts the mini-C programs embedded as raw
// string literals in the examples and verifies them too.
func TestCorpusExamples(t *testing.T) {
	var srcs []string
	goFiles, _ := filepath.Glob("../../examples/*/main.go")
	for _, gf := range goFiles {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, gf, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", gf, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, isLit := n.(*ast.BasicLit)
			if !isLit || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if prog, err := source.Parse(text); err == nil && hasFor(prog) {
				srcs = append(srcs, text)
			}
			return true
		})
	}
	if len(srcs) == 0 {
		t.Fatal("no mini-C programs found in examples")
	}
	for i, src := range srcs {
		requireAllProved(t, "example_"+strconv.Itoa(i), src)
	}
}

func hasFor(p *source.Program) bool {
	found := false
	for _, s := range p.Stmts {
		source.WalkStmt(s, func(st source.Stmt) bool {
			if _, isFor := st.(*source.For); isFor {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

const fig7 = `float A[40]; float B[40]; float C[40];
float reg = 0.0; float scal = 0.0;
for (i = 1; i < 30; i++) {
	reg = A[i+1];
	A[i] = A[i-1] + reg;
	scal = B[i] / 2.0;
	C[i] = scal * 3.0;
}
`

// transformFig7 returns the applied result for the paper's figure-7
// loop (II=2, 2 stages, 4 MIs).
func transformFig7(t *testing.T) *core.Result {
	t.Helper()
	prog, err := source.Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Filter = false
	_, results, err := core.TransformProgram(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Applied {
			return r
		}
	}
	t.Fatal("fig7 loop was not transformed")
	return nil
}

// pipelinedStmts digs the pipelined statement list out of a guarded
// replacement.
func pipelinedStmts(t *testing.T, res *core.Result) *source.Block {
	t.Helper()
	blk := res.Replacement.(*source.Block)
	gif, isIf := blk.Stmts[len(blk.Stmts)-1].(*source.If)
	if !isIf {
		t.Fatal("replacement is not guarded")
	}
	return gif.Then
}

func kernelOf(t *testing.T, body *source.Block) *source.For {
	t.Helper()
	for _, s := range body.Stmts {
		if f, isFor := s.(*source.For); isFor {
			return f
		}
	}
	t.Fatal("no kernel loop in pipelined code")
	return nil
}

// TestVerifyProvesFig7 sanity-checks the positive path at the API
// level (the corpus tests cover it wholesale).
func TestVerifyProvesFig7(t *testing.T) {
	res := transformFig7(t)
	v := analysis.VerifyResult(res)
	if v.Status != analysis.StatusProved {
		t.Fatalf("status %v, want proved; notes: %v", v.Status, v.Notes)
	}
	if v.Edges == 0 || v.Trips == 0 {
		t.Fatalf("vacuous proof: %d edges, %d trips", v.Edges, v.Trips)
	}
}

// TestBrokenScheduleRefuted swaps the two kernel rows of the fig7
// schedule — making the scal consumer C[i] = scal*3.0 execute before
// the producer scal = B[i]/2.0 in every pass — and demands a refutation
// with a witness edge.
func TestBrokenScheduleRefuted(t *testing.T) {
	res := transformFig7(t)
	kf := kernelOf(t, pipelinedStmts(t, res))
	if len(kf.Body.Stmts) < 2 {
		t.Fatalf("expected a multi-row kernel, got %d row(s)", len(kf.Body.Stmts))
	}
	kf.Body.Stmts[0], kf.Body.Stmts[1] = kf.Body.Stmts[1], kf.Body.Stmts[0]

	v := analysis.VerifyResult(res)
	if v.Status != analysis.StatusRefuted {
		t.Fatalf("status %v, want refuted; notes: %v", v.Status, v.Notes)
	}
	if v.Witness == nil || v.Witness.Edge == nil {
		t.Fatalf("refutation without a witness edge: %+v", v.Witness)
	}
	if v.Witness.Edge.Var == "" || v.Witness.Detail == "" {
		t.Errorf("witness lacks a concrete violation: %+v", v.Witness)
	}
}

// TestBrokenScheduleGateCode drives the same broken schedule through
// VerifyTransformed — the gate behind pipeline -verify — and asserts
// the refutation surfaces with its SLMS010 diagnostic code.
func TestBrokenScheduleGateCode(t *testing.T) {
	res := transformFig7(t)
	kf := kernelOf(t, pipelinedStmts(t, res))
	kf.Body.Stmts[0], kf.Body.Stmts[1] = kf.Body.Stmts[1], kf.Body.Stmts[0]

	prog, err := source.Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	gerr := analysis.VerifyTransformed(prog, prog, []*core.Result{res}, core.DefaultOptions())
	if gerr == nil || !strings.Contains(gerr.Error(), analysis.CodeDepViolated) {
		t.Fatalf("want a %s gate error, got %v", analysis.CodeDepViolated, gerr)
	}
}

// TestVerifyStageBindsVerdictsToResults: the verify stage returns a
// cached verdict only for the very results it was computed on. Warmed
// with fig7's good shared transform, it must still refute a hand-broken
// copy of those results — through the gate and through the lint — and
// go on proving the shared transform from the cache afterwards.
func TestVerifyStageBindsVerdictsToResults(t *testing.T) {
	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(memo.Reset)
	prog, err := source.Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Filter = false
	out, results, err := core.TransformProgramCached(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyTransformed(prog, out, results, opts); err != nil {
		t.Fatalf("good transform: %v", err)
	}

	// The copy swaps the kernel rows of a fresh transform of the same
	// loop and puts it in place of the shared applied result.
	broken := slices.Clone(results)
	applied := slices.IndexFunc(broken, func(r *core.Result) bool { return r.Applied })
	if applied < 0 {
		t.Fatal("fig7 loop was not transformed")
	}
	broken[applied] = transformFig7(t)
	kf := kernelOf(t, pipelinedStmts(t, broken[applied]))
	kf.Body.Stmts[0], kf.Body.Stmts[1] = kf.Body.Stmts[1], kf.Body.Stmts[0]

	gerr := analysis.VerifyTransformed(prog, out, broken, opts)
	if gerr == nil || !strings.Contains(gerr.Error(), analysis.CodeDepViolated) {
		t.Errorf("gate on the broken copy: want a %s error, got %v", analysis.CodeDepViolated, gerr)
	}
	rep := analysis.LintTransformed("fig7.c", prog, out, broken, analysis.LintOptions{Core: opts})
	if rep.Summary.Refuted != 1 || !slices.ContainsFunc(rep.Diags, func(d analysis.Diag) bool {
		return d.Code == analysis.CodeDepViolated
	}) {
		t.Errorf("lint of the broken copy: want one %s refutation, got:\n%s", analysis.CodeDepViolated, rep.Render(false))
	}

	if err := analysis.VerifyTransformed(prog, out, results, opts); err != nil {
		t.Errorf("good transform after the broken copy: %v", err)
	}
	if h, m := memo.Stats(memo.Verify); h != 3 || m != 1 {
		t.Errorf("verify stage hits=%d misses=%d, want 3/1 (one fill, reused only for the shared results)", h, m)
	}
}

// TestMissingPrologueRowRefutedAsCoverage deletes the first prologue
// row, so one MI never executes iteration 0: a coverage refutation
// (SLMS011-class, witness without an edge).
func TestMissingPrologueRowRefutedAsCoverage(t *testing.T) {
	res := transformFig7(t)
	then := pipelinedStmts(t, res)
	if _, isFor := then.Stmts[0].(*source.For); isFor {
		t.Fatal("expected a prologue row before the kernel")
	}
	then.Stmts = then.Stmts[1:]

	v := analysis.VerifyResult(res)
	if v.Status != analysis.StatusRefuted {
		t.Fatalf("status %v, want refuted; notes: %v", v.Status, v.Notes)
	}
	if v.Witness == nil || v.Witness.Edge != nil {
		t.Fatalf("want an edge-less coverage witness, got %+v", v.Witness)
	}
	if !strings.Contains(v.Witness.Detail, "never executes") {
		t.Errorf("unexpected coverage detail: %s", v.Witness.Detail)
	}
}

// TestReportJSONAndCodes locks the diagnostic surface: JSON round-trip,
// stable codes, and the code classification of rejection reasons.
func TestReportJSONAndCodes(t *testing.T) {
	// A loop the filter rejects (pure memory shuffle, ratio 1.0).
	src := `float A[64]; float B[64];
for (i = 0; i < 64; i++) { A[i] = B[i]; }
`
	rep, err := analysis.LintSource("t.c", src, analysis.LintOptions{Core: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Filtered != 1 {
		t.Fatalf("want 1 filtered loop, got %+v", rep.Summary)
	}
	if len(rep.Diags) == 0 || rep.Diags[0].Code != analysis.CodeFilterRejected {
		t.Fatalf("want %s diagnostic, got %+v", analysis.CodeFilterRejected, rep.Diags)
	}
	if rep.Diags[0].Line == 0 {
		t.Error("diagnostic lost its source line")
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back analysis.Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Summary != rep.Summary || len(back.Diags) != len(rep.Diags) {
		t.Error("JSON round-trip changed the report")
	}

	// A refuted schedule must produce an SLMS010 error through the
	// plumbing that slmslint and the pipeline gate share.
	if !strings.Contains(rep.Render(false), "SLMS001") {
		t.Error("human rendering lost the diagnostic code")
	}
}

// TestDifferentialCatchesMiscompilation feeds the differential harness
// a deliberately wrong "transformed" program and expects diffs.
func TestDifferentialCatchesMiscompilation(t *testing.T) {
	orig, err := source.Parse(`float A[16]; float B[16];
for (i = 0; i < 16; i++) { A[i] = B[i] * 2.0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := source.Parse(`float A[16]; float B[16];
for (i = 0; i < 16; i++) { A[i] = B[i] * 3.0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := analysis.Differential(orig, bad, analysis.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("differential harness missed a real divergence")
	}
	// And agreeing programs produce none.
	diffs, err = analysis.Differential(orig, orig, analysis.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("identical programs diverged: %v", diffs)
	}
}

// TestRecurrenceDiagnosticsDeterministic: SLMS300 and SLMS303 name the
// recurrence that binds a loop's II, and every fresh analysis must name
// the same one. These kernels have several equally binding cycles, and
// used to alternate between them with the order in which the scalar
// dependence edges came out of a map.
func TestRecurrenceDiagnosticsDeterministic(t *testing.T) {
	kernels := map[string]bool{"stone3": true, "idamax": true, "idamax2": true, "kernel24": true}
	for _, k := range bench.Kernels() {
		if !kernels[k.Name] {
			continue
		}
		delete(kernels, k.Name)
		prog, err := source.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		texts := map[string]int{}
		for i := 0; i < 200; i++ {
			rep, err := analysis.LintProgram(k.Name, prog, analysis.LintOptions{Core: core.DefaultOptions()})
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			var b strings.Builder
			for _, d := range rep.Diags {
				if d.Code == analysis.CodePipelined || d.Code == analysis.CodeBindingCycle {
					b.WriteString(d.Message + "\n")
				}
			}
			texts[b.String()]++
		}
		if len(texts) != 1 {
			t.Errorf("%s: %d distinct recurrence texts over 200 analyses:\n%v", k.Name, len(texts), texts)
		} else if _, empty := texts[""]; empty {
			t.Errorf("%s: no SLMS300/SLMS303 diagnostic", k.Name)
		}
	}
	if len(kernels) > 0 {
		t.Errorf("kernels missing from the corpus: %v", kernels)
	}
}
