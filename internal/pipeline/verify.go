package pipeline

import (
	"fmt"
	"sync/atomic"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/source"
)

// verifyGate, when set, makes RunExperiments validate every SLMS
// application before compiling the transformed program: each applied
// loop must be statically proved dependence-preserving (a refutation is
// an immediate error), and inconclusive loops are arbitrated by the
// differential interpreter harness. The gate is process-wide so the
// CLIs can flip it with a -verify flag without threading a parameter
// through every experiment signature.
var verifyGate atomic.Bool

// SetVerify toggles the pre-compilation verification gate.
func SetVerify(on bool) { verifyGate.Store(on) }

// Verifying reports whether the verification gate is enabled.
func Verifying() bool { return verifyGate.Load() }

// verifyResults checks every applied result of orig's transformation
// under opts. Safe on cached (shared, read-only) results: verification
// only reads them, and proves each (program, options) pair once across
// the (machine, compiler) cells that share its transform.
func verifyResults(orig, transformed *source.Program, results []*core.Result, opts core.Options) error {
	if err := analysis.VerifyTransformed(orig, transformed, results, opts); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}
