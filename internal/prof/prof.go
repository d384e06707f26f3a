// Package prof is the simulator's cycle-attribution model: every cycle
// a run spends is attributed to a (source line, block, cause) triple,
// where the cause says *why* the cycle happened — useful work (issue),
// a register hazard, an L1 miss, software-pipeline fill, loop
// prologue/epilogue scaffolding, or a taken branch. The attribution is
// exact: the per-cause counts of a run's profile sum to the run's
// Metrics.Cycles (a corpus test enforces this).
//
// The package is a leaf: it defines the data model and its renderings
// (hot-line text table, JSON, pprof protobuf). The simulator fills
// profiles in via dense accumulator arrays (internal/sim), the pipeline
// layer derives per-loop schedule-quality stats and joins decision
// records (internal/pipeline), and cmd/slmsprof plus the -profile flags
// expose them. It holds no switch: a measurement is profiled because
// its caller asked for it (pipeline.Modes.Profile), and the simulator
// attributes only the runs of a predecode built for profiling.
package prof

import (
	"encoding/json"
	"fmt"
)

// Cause classifies why a simulated cycle was spent.
type Cause uint8

const (
	// CauseIssue is useful work: cycles in which the machine issued
	// instructions (for static/VLIW machines, the scheduled bundle
	// cycles; for in-order machines, cycles that issued at least one
	// instruction).
	CauseIssue Cause = iota
	// CauseHazard is a stall on a register not yet produced (or an
	// issue-width / functional-unit structural conflict), excluding
	// stalls traced to an L1 miss.
	CauseHazard
	// CauseMiss is a stall (or static penalty) traced to an L1 data
	// cache miss.
	CauseMiss
	// CauseFill is software-pipeline fill: the SL-II extra cycles a
	// modulo-scheduled loop pays on entry before reaching steady state.
	CauseFill
	// CauseProEpi is loop prologue/epilogue scaffolding: cycles spent in
	// the peeled fill/drain blocks SLMS places around a pipelined loop.
	CauseProEpi
	// CauseBranch is taken-branch redirection cost on dynamic-issue
	// machines.
	CauseBranch

	// NumCauses is the number of causes (for dense per-cause arrays).
	NumCauses = int(CauseBranch) + 1
)

var causeNames = [NumCauses]string{
	"issue", "hazard-stall", "l1-miss", "pipeline-fill", "prologue-epilogue", "branch",
}

// String returns the canonical hyphenated cause name.
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Counts is a dense per-cause cycle vector.
type Counts [NumCauses]int64

// Total sums all causes.
func (c *Counts) Total() int64 {
	var t int64
	for _, v := range c {
		t += v
	}
	return t
}

// Add accumulates o into c.
func (c *Counts) Add(o *Counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// countsJSON is the wire form of Counts: named fields in a fixed order
// so serialized profiles diff stably.
type countsJSON struct {
	Issue  int64 `json:"issue,omitempty"`
	Hazard int64 `json:"hazard_stall,omitempty"`
	Miss   int64 `json:"l1_miss,omitempty"`
	Fill   int64 `json:"pipeline_fill,omitempty"`
	ProEpi int64 `json:"prologue_epilogue,omitempty"`
	Branch int64 `json:"branch,omitempty"`
}

// MarshalJSON renders the vector with stable, named cause fields.
func (c Counts) MarshalJSON() ([]byte, error) {
	return json.Marshal(countsJSON{
		Issue: c[CauseIssue], Hazard: c[CauseHazard], Miss: c[CauseMiss],
		Fill: c[CauseFill], ProEpi: c[CauseProEpi], Branch: c[CauseBranch],
	})
}

// UnmarshalJSON parses the named-field wire form.
func (c *Counts) UnmarshalJSON(b []byte) error {
	var w countsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	c[CauseIssue], c[CauseHazard], c[CauseMiss] = w.Issue, w.Hazard, w.Miss
	c[CauseFill], c[CauseProEpi], c[CauseBranch] = w.Fill, w.ProEpi, w.Branch
	return nil
}

// LineStat is the cycle attribution of one source line. Line 0 collects
// compiler-generated instructions with no source position.
type LineStat struct {
	Line   int    `json:"line"`
	Counts Counts `json:"cycles"`
}

// BlockStat is the cycle attribution of one IR block.
type BlockStat struct {
	Block  int    `json:"block"`
	Line   int    `json:"line"` // first source line in the block (0 = generated)
	Execs  int64  `json:"execs"`
	Counts Counts `json:"cycles"`
}

// LoopStat is a loop's schedule-quality record, derived from the raw
// attribution plus the compile artifact, and joined with the SLMS2xx
// decision that covered the loop.
type LoopStat struct {
	Block int   `json:"block"`
	Line  int   `json:"line"`
	Execs int64 `json:"execs"` // body executions (trip count across entries)

	Cycles        int64   `json:"cycles"` // attributed to the body block
	CyclesPerIter float64 `json:"cycles_per_iter"`

	// Modulo-schedule quality (zero when the loop was not pipelined).
	II         int     `json:"ii,omitempty"`
	MII        int     `json:"mii,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"` // MII/II, 1.0 = optimal

	// IssueUtil is issued instructions per cycle over the machine's
	// issue width, for cycles attributed to the body.
	IssueUtil float64 `json:"issue_util,omitempty"`

	// Register-pressure high-water mark under the schedule.
	PressInt   int `json:"press_int,omitempty"`
	PressFloat int `json:"press_float,omitempty"`

	// FillDrainFrac is pipeline fill plus prologue/epilogue cycles as a
	// fraction of all cycles the loop (body + scaffolding) cost.
	FillDrainFrac float64 `json:"fill_drain_frac,omitempty"`

	// Joined SLMS2xx decision record, when one covered this loop.
	DecisionCode    string `json:"decision,omitempty"`
	DecisionVerdict string `json:"verdict,omitempty"`
}

// Profile is one run's cycle attribution.
type Profile struct {
	// Label names the profiled program (kernel or file name).
	Label    string `json:"label,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	// Leg distinguishes the base run from the SLMS-transformed run.
	Leg string `json:"leg,omitempty"`

	Cycles int64 `json:"total_cycles"` // == Metrics.Cycles of the run
	Instrs int64 `json:"total_instrs"`

	Lines  []LineStat  `json:"lines"`            // ascending line
	Blocks []BlockStat `json:"blocks,omitempty"` // ascending block ID
	Loops  []LoopStat  `json:"loops,omitempty"`  // ascending line
}

// Totals sums the per-line cause vectors.
func (p *Profile) Totals() Counts {
	var t Counts
	for i := range p.Lines {
		t.Add(&p.Lines[i].Counts)
	}
	return t
}
