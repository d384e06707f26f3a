package bench

import (
	"fmt"

	"slms/internal/core"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sim"
	"slms/internal/source"
)

// CensusRow records whether the strong compiler's machine-level modulo
// scheduler fired on a loop before and after SLMS.
type CensusRow struct {
	Kernel       string
	SLMSApplied  bool
	IMSBefore    bool
	IMSAfter     bool
	BeforeReason string
	AfterReason  string
	Speedup      float64
}

// Census reproduces the paper's §9.2 statistic: "out of 31 loops that
// were tested, ICC performed MS both before and after SLMS for 26 of
// those loops. For three loops ... ICC did not apply MS but SLMS did ...
// For two loops ... ICC performed MS only before SLMS." It runs every
// kernel under the strong compiler and reports, per loop, whether the
// machine-level modulo scheduler accepted the hot loop body before and
// after the source-level transformation.
func Census() ([]CensusRow, error) {
	d := machine.IA64Like()
	var rows []CensusRow
	for _, k := range Kernels() {
		prog := source.MustParse(k.Source)
		out, err := runExperiment(k.Name, prog, d, pipeline.StrongO3, core.DefaultOptions(), k.Setup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		row := CensusRow{Kernel: k.Name, SLMSApplied: out.Applied, Speedup: out.Speedup}
		row.IMSBefore, row.BeforeReason = hotIMS(out.BaseArt, out.Base)
		row.IMSAfter, row.AfterReason = hotIMS(out.SLMSArt, out.SLMS)
		rows = append(rows, row)
	}
	return rows, nil
}

// hotIMS reports the machine-MS outcome on the most-executed loop body.
func hotIMS(art *pipeline.Artifact, m *sim.Metrics) (bool, string) {
	hot, hotExecs := -1, int64(-1)
	for id := range art.LoopSched {
		execs := int64(0)
		if id < len(m.ExecCounts) {
			execs = m.ExecCounts[id]
		}
		if execs > hotExecs {
			hot, hotExecs = id, execs
		}
	}
	if hot < 0 {
		return false, "no loop body"
	}
	r := art.IMSResults[hot]
	if r == nil {
		return false, "loop body not considered"
	}
	if r.OK {
		return true, ""
	}
	return false, r.Reason
}

// CensusTable renders the census.
func CensusTable(rows []CensusRow) string {
	out := "Machine-level MS census under the strong compiler (paper §9.2)\n"
	out += fmt.Sprintf("%-10s %6s %10s %10s %9s\n", "kernel", "slms", "MS before", "MS after", "speedup")
	both, onlyBefore, onlyAfter, neither := 0, 0, 0, 0
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %6v %10v %10v %9.3f\n",
			r.Kernel, r.SLMSApplied, r.IMSBefore, r.IMSAfter, r.Speedup)
		switch {
		case r.IMSBefore && r.IMSAfter:
			both++
		case r.IMSBefore:
			onlyBefore++
		case r.IMSAfter:
			onlyAfter++
		default:
			neither++
		}
	}
	out += fmt.Sprintf("summary: MS before & after: %d; only before: %d; only after: %d; neither: %d (of %d loops)\n",
		both, onlyBefore, onlyAfter, neither, len(rows))
	out += "paper: 26 both, 2 only before (kernel 8, idamax2), 3 neither-but-SLMS (kernels 2, 7, 24)\n"
	return out
}
