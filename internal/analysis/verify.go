package analysis

import (
	"fmt"
	"slices"

	"slms/internal/core"
	"slms/internal/dep"
	"slms/internal/memo"
	"slms/internal/source"
)

// VerifyResult statically verifies one applied SLMS result: it re-runs
// dependence analysis on the recorded MIs, re-recognizes the emitted
// prologue/kernel/epilogue structure, and checks every dependence edge
// positionally and algebraically. It never executes the program and is
// safe to call concurrently on shared (cached) results.
func VerifyResult(res *core.Result) *Verdict {
	if res == nil || !res.Applied {
		return &Verdict{Notes: []string{"loop was not transformed; nothing to verify"}}
	}
	vi := res.Verify
	if vi == nil {
		return &Verdict{Notes: []string{"result carries no verification metadata"}}
	}
	// Independent re-derivation: the checker trusts the recorded MIs and
	// loop shape, but not the transform's own dependence analysis.
	ran, err := dep.Analyze(vi.MIs, vi.Loop.Var, vi.Tab, vi.DepOptions())
	if err != nil {
		return &Verdict{Notes: []string{"re-derivation failed: " + err.Error()}}
	}
	// Every pair the exact solver sharpened beyond the legacy test is
	// re-checked by independent enumeration before its edges are trusted.
	w, rnotes := revalidateResolutions(ran)
	if w != nil {
		return &Verdict{Status: StatusRefuted, Witness: w, Notes: rnotes}
	}
	m, notes := recognize(vi, res.Replacement)
	if m == nil {
		return &Verdict{Notes: append(append(rnotes, notes...), "transformed code was not recognized")}
	}
	edges, problems := effectiveEdges(vi, ran)
	v := check(m, edges, problems)
	v.Notes = append(rnotes, v.Notes...)
	return v
}

// LintOptions configures LintProgram.
type LintOptions struct {
	// Core configures the SLMS transformation being validated.
	Core core.Options
	// Diff forces the differential harness to run even for loops the
	// static checker proved (it always runs for inconclusive ones).
	Diff bool
	// Seeds is the differential input-set count (default 3).
	Seeds int
}

// verified is the verify stage's cache value: the results VerifyResult
// ran on and its verdict on each.
type verified struct {
	results  []*core.Result
	verdicts []*Verdict
}

// verifyAll runs VerifyResult on every applied result; a loop not
// applied gets a nil verdict.
func verifyAll(results []*core.Result) []*Verdict {
	vs := make([]*Verdict, len(results))
	for i, res := range results {
		if res != nil && res.Applied {
			vs[i] = VerifyResult(res)
		}
	}
	return vs
}

// verdicts returns verifyAll(results) for results, the transformation
// of prog under opts. A transform is immutable once shared, so the
// verify stage of the pipeline cache (package memo) proves each
// (program, options) pair once. A cached verdict is returned only for
// the very results it was computed on — the transform stage's shared
// output. Any other results (an uncached transform, a transform entry
// evicted and filled again, a hand-broken copy) are verified afresh.
func verdicts(prog *source.Program, opts core.Options, results []*core.Result) []*Verdict {
	k := memo.Key{Stage: memo.Verify, Hash: source.Fingerprint(prog), Config: opts}
	v, _ := memo.Get(nil, k, source.PrintedLen(prog), func() (verified, error) {
		return verified{results, verifyAll(results)}, nil
	})
	if !slices.Equal(v.results, results) {
		return verifyAll(results)
	}
	return v.verdicts
}

// LintProgram transforms every innermost loop of prog through the
// pipeline cache and lints the transformation (see LintTransformed).
// The returned error reports harness failures (semantic errors,
// transform crashes), not findings.
func LintProgram(file string, prog *source.Program, opts LintOptions) (*Report, error) {
	transformed, results, err := core.TransformProgramCached(prog, opts.Core)
	if err != nil {
		return nil, err
	}
	return LintTransformed(file, prog, transformed, results, opts), nil
}

// LintTransformed verifies every application in results, the
// transformation of prog into transformed under opts.Core, producing a
// diagnostic report: why each loop was accepted or rejected, and
// whether each transformation is proved, refuted (with a witness edge)
// or inconclusive — in which case the differential harness arbitrates.
// It only reads the results and is safe on shared (cached)
// transformations, whose verdicts come from the verify stage.
func LintTransformed(file string, prog, transformed *source.Program, results []*core.Result, opts LintOptions) *Report {
	rep := &Report{File: file}
	vs := verdicts(prog, opts.Core, results)
	needDiff := opts.Diff
	for i, res := range results {
		rep.Summary.Loops++
		line, col := posOf(res.Pos)
		loopVar := ""
		if res.Verify != nil {
			loopVar = res.Verify.Loop.Var
		}
		if !res.Applied {
			code := codeForReason(res.Reason)
			if code == CodeFilterRejected {
				rep.Summary.Filtered++
			} else {
				rep.Summary.Skipped++
			}
			rep.add(Diag{
				Code: code, Severity: SevInfo, Line: line, Col: col,
				Message: "not transformed: " + res.Reason,
			})
			for _, d := range pipelinability(res, line, col, loopVar) {
				rep.add(d)
			}
			continue
		}
		rep.Summary.Applied++
		v := vs[i]
		switch v.Status {
		case StatusProved:
			rep.Summary.Proved++
			rep.add(Diag{
				Code: CodeProved, Severity: SevInfo, Line: line, Col: col, Loop: loopVar,
				Message: fmt.Sprintf("dependence preservation proved: %d edge(s) over %d trip count(s) (II=%d, stages=%d, unroll=%d, %s)",
					v.Edges, v.Trips, res.II, res.Stages, res.Unroll, res.Mode),
			})
		case StatusRefuted:
			rep.Summary.Refuted++
			code := CodeDepViolated
			if v.Witness != nil && v.Witness.Edge == nil {
				code = CodeBadCoverage
			}
			rep.add(Diag{
				Code: code, Severity: SevError, Line: line, Col: col, Loop: loopVar,
				Message: "schedule refuted: " + v.Witness.String(),
			})
		default:
			rep.Summary.Inconclusive++
			needDiff = true
			msg := "static verification inconclusive"
			for _, n := range v.Notes {
				msg += "; " + n
			}
			rep.add(Diag{
				Code: CodeUnrecognized, Severity: SevWarning, Line: line, Col: col, Loop: loopVar,
				Message: msg,
			})
		}
		for _, n := range v.Notes {
			if v.Status != StatusProved {
				break // already folded into the message above
			}
			rep.add(Diag{
				Code: CodeProved, Severity: SevInfo, Line: line, Col: col, Loop: loopVar,
				Message: "note: " + n,
			})
		}
		for _, d := range pipelinability(res, line, col, loopVar) {
			rep.add(d)
		}
	}

	if needDiff && rep.Summary.Applied > 0 {
		diffs, derr := Differential(prog, transformed, DiffOptions{Seeds: opts.Seeds})
		switch {
		case derr != nil:
			rep.add(Diag{
				Code: CodeUnrecognized, Severity: SevWarning,
				Message: "differential harness did not run: " + derr.Error(),
			})
		case len(diffs) > 0:
			msg := "original and transformed programs diverge:"
			for _, d := range diffs {
				msg += " " + d.String() + ";"
			}
			rep.add(Diag{Code: CodeDiffMismatch, Severity: SevError, Message: msg})
		default:
			rep.add(Diag{
				Code: CodeDiffValidated, Severity: SevInfo,
				Message: "differential validation passed (original and transformed agree on generated inputs)",
			})
		}
	}
	return rep
}

// VerifyTransformed gates an already-performed transformation of orig
// under opts: every applied result must be statically proved; the first
// refutation in source order is an error carrying the witness and
// diagnostic code, and inconclusive verdicts are arbitrated by the
// differential harness. It only reads the results and is safe on shared
// (cached) transformations, whose verdicts come from the verify stage,
// so a gate over many (machine, compiler) cells proves each transform
// once.
func VerifyTransformed(orig, transformed *source.Program, results []*core.Result, opts core.Options) error {
	vs := verdicts(orig, opts, results)
	needDiff := false
	for i, res := range results {
		if res == nil || !res.Applied {
			continue
		}
		v := vs[i]
		switch v.Status {
		case StatusProved:
		case StatusRefuted:
			code := CodeDepViolated
			if v.Witness != nil && v.Witness.Edge == nil {
				code = CodeBadCoverage
			}
			line, _ := posOf(res.Pos)
			return fmt.Errorf("%s: loop at line %d: schedule refuted: %s", code, line, v.Witness)
		default:
			needDiff = true
		}
	}
	if !needDiff {
		return nil
	}
	diffs, err := Differential(orig, transformed, DiffOptions{})
	if err != nil {
		return fmt.Errorf("static check inconclusive and differential harness failed: %w", err)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s: original and transformed programs diverge: %v", CodeDiffMismatch, diffs)
	}
	return nil
}

// LintSource parses src and lints it (see LintProgram).
func LintSource(file, src string, opts LintOptions) (*Report, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return nil, err
	}
	return LintProgram(file, prog, opts)
}
