package analysis

import (
	"fmt"

	"slms/internal/core"
	"slms/internal/dep"
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

// LintProgram transforms every innermost loop of prog and verifies each
// application, producing a diagnostic report: why each loop was
// accepted or rejected, and whether each transformation is proved,
// refuted (with a witness edge) or inconclusive — in which case the
// differential harness arbitrates. The returned error reports harness
// failures (semantic errors, transform crashes), not findings.
func LintProgram(file string, prog *source.Program, opts LintOptions) (*Report, error) {
	rep := &Report{File: file}
	transformed, results, err := core.TransformProgram(prog, opts.Core)
	if err != nil {
		return nil, err
	}

	needDiff := opts.Diff
	for _, res := range results {
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
		v := VerifyResult(res)
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
	return rep, nil
}

// VerifyTransformed gates an already-performed transformation: every
// applied result must be statically proved; a refutation is an error
// carrying the witness and diagnostic code, and inconclusive verdicts
// are arbitrated by the differential harness. The loops are verified in
// source order, and the first refutation is returned without verifying
// the rest. It only reads the results and is safe on shared (cached)
// transformations.
func VerifyTransformed(orig, transformed *source.Program, results []*core.Result) error {
	needDiff := false
	for _, res := range results {
		if res == nil || !res.Applied {
			continue
		}
		v := VerifyResult(res)
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
