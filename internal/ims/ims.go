// Package ims implements machine-level iterative modulo scheduling
// (Rau, MICRO 1994) over the virtual ISA: the optimization the paper's
// strong final compilers (ICC, XLC) apply to innermost loops, and the
// baseline SLMS is compared against. The scheduler computes
// ResMII/RecMII from the instruction-level dependence graph (using the
// affine memory tags for disambiguation), then probes candidate IIs
// with a pluggable sched.Scheduler backend — by default the Rau-style
// height-priority heuristic this package registers as "ims"; the
// "exact" SDC backend (package sched/exact) turns the same search into
// an optimality proof. Schedules whose register pressure exceeds the
// machine file are rejected — the failure mode of the paper's
// Figure 11.
package ims

import (
	"errors"
	"fmt"

	"slms/internal/ddg"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/mii"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// Result describes a modulo-scheduling attempt on one loop body.
type Result struct {
	OK         bool
	Reason     string // why scheduling was rejected, when !OK
	II         int    // initiation interval (cycles per iteration)
	SL         int    // schedule length of one iteration (fill/drain cost)
	Stages     int
	ResMII     int
	RecMII     int
	PressInt   int // estimated integer register pressure
	PressFloat int
	// Scheduler is the backend that produced (or failed to produce)
	// the schedule.
	Scheduler string
	// Opt is the optimality verdict when a prover ran (Config.Prove or
	// an exact scheduling backend); nil otherwise.
	Opt *sched.Optimality
}

// Config selects the scheduling backend and the optional optimality
// proof for one Schedule call.
type Config struct {
	// Scheduler is the placement backend; nil resolves the registry
	// default ("ims").
	Scheduler sched.Scheduler
	// Prove, when non-nil, runs after the II search: an exact backend
	// that establishes the proven-minimal II and the optimality gap
	// (Result.Opt). Ignored when Scheduler itself is exact — its first
	// accepted II is already proven minimal.
	Prove sched.Scheduler
}

// EffortConfig resolves a scheduler name and effort level into a
// backend configuration — the single validation point the pipeline, the
// CLIs and slmsd share. The scheduler name goes through the sched
// registry ("" = the default heuristic); effort tunes the exact search
// budget ("" or "standard" = the exact backend's default, "quick" = a
// small budget, "max" = unlimited). Under the heuristic backend a
// non-empty effort additionally configures the exact prover, so every
// schedule comes back with its optimality verdict.
func EffortConfig(scheduler, effort string) (Config, error) {
	s, err := sched.Get(scheduler)
	if err != nil {
		return Config{}, err
	}
	var budget int
	switch effort {
	case "", "standard":
		budget = 0
	case "quick":
		budget = 20_000
	case "max":
		budget = -1
	default:
		return Config{}, fmt.Errorf("unknown effort %q (want quick, standard or max)", effort)
	}
	cfg := Config{Scheduler: s}
	if ex, ok := s.(*exact.Sched); ok {
		cfg.Scheduler = ex.WithBudget(budget)
	} else if effort != "" {
		cfg.Prove = (&exact.Sched{}).WithBudget(budget)
	}
	return cfg, nil
}

// Schedule modulo-schedules the body block of an innermost loop with
// the default heuristic backend. useTags enables affine memory
// disambiguation.
func Schedule(b *ir.Block, d *machine.Desc, useTags bool) *Result {
	return ScheduleWith(b, d, useTags, Config{})
}

// ScheduleWith is Schedule with an explicit backend configuration.
func ScheduleWith(b *ir.Block, d *machine.Desc, useTags bool, cfg Config) *Result {
	s := cfg.Scheduler
	if s == nil {
		s, _ = sched.Get(sched.DefaultName)
	}
	ins := withoutBranch(b.Instrs)
	n := len(ins)
	res := &Result{Scheduler: s.Name()}
	if n == 0 {
		res.Reason = "empty body"
		return res
	}
	g := BuildGraph(ins, d, useTags)

	res.ResMII = sched.ResourceMinII(g, d)
	res.RecMII = recMII(g, 4*n+16)
	if res.RecMII < 0 {
		res.Reason = "no feasible II (unresolvable recurrence)"
		return res
	}
	start := res.ResMII
	if res.RecMII > start {
		start = res.RecMII
	}
	if start < 1 {
		start = 1
	}
	maxII := start + n + 8
	exact := s.Caps().Exact
	var lastUnsat *sched.Unsat
	budgetCut := false
	for ii := start; ii <= maxII; ii++ {
		sc, err := s.Schedule(g, d, ii)
		if sc == nil {
			var u *sched.Unsat
			var bd *sched.Budget
			switch {
			case errors.As(err, &u):
				lastUnsat = u
			case errors.As(err, &bd):
				budgetCut = true
			}
			continue
		}
		sigma := sc.Time
		sl := 0
		for i, t := range sigma {
			if e := t + g.Nodes[i].Lat; e > sl {
				sl = e
			}
		}
		res.II = ii
		res.SL = sl + d.Lat.Branch
		res.Stages = (res.SL + ii - 1) / ii
		res.PressInt, res.PressFloat = pressure(ins, sigma, ii)
		if exact {
			res.Opt = exactVerdict(ii, lastUnsat, budgetCut)
		}
		if res.PressInt > d.IntRegs || res.PressFloat > d.FPRegs {
			res.Reason = fmt.Sprintf("register pressure (%d int / %d fp) exceeds file (%d/%d)",
				res.PressInt, res.PressFloat, d.IntRegs, d.FPRegs)
			runProver(res, g, d, cfg, sc, maxII)
			return res
		}
		res.OK = true
		runProver(res, g, d, cfg, sc, maxII)
		return res
	}
	res.Reason = fmt.Sprintf("no schedule up to II=%d", maxII)
	runProver(res, g, d, cfg, nil, maxII)
	return res
}

// exactVerdict synthesizes the optimality record for a search driven
// directly by an exact backend: the accepted II is proven minimal when
// every smaller probe was refuted (no budget cut swallowed one).
func exactVerdict(ii int, lastUnsat *sched.Unsat, budgetCut bool) *sched.Optimality {
	o := &sched.Optimality{HeurII: ii, ExactII: ii, Verdict: sched.VerdictOptimal}
	if budgetCut {
		o.Verdict = sched.VerdictBudget
		o.Cert = "a smaller II was cut by budget, not refuted"
		return o
	}
	switch {
	case ii == 1:
		o.Cert = "II=1 is the unconditional minimum"
	case lastUnsat != nil:
		o.Cert = lastUnsat.Describe()
	default:
		o.Cert = fmt.Sprintf("II=%d is the analytic lower bound (ResMII/RecMII)", ii)
	}
	return o
}

// runProver fills Result.Opt with the exact prover's verdict when one
// is configured. The heuristic's schedule sc (nil = none) is the
// feasibility witness at its II once sched.Check accepts it, so the
// exact search only refutes smaller IIs; a schedule that fails the
// check proves nothing, and the exact search decides alone. The
// heuristic's II counts even when register pressure rejected the
// schedule — the gap question is about the II.
func runProver(res *Result, g *sched.Graph, d *machine.Desc, cfg Config, sc *sched.Schedule, maxII int) {
	if cfg.Prove == nil || res.Opt != nil {
		return
	}
	heurII := 0
	if sched.Check(g, d, sc) == nil {
		heurII = sc.II
	}
	res.Opt = sched.Prove(g, d, cfg.Prove, heurII, maxII)
}

func withoutBranch(ins []*ir.Instr) []*ir.Instr {
	if len(ins) > 0 && ins[len(ins)-1].Op.IsBranch() {
		return ins[:len(ins)-1]
	}
	return ins
}

// recMII is the recurrence-constrained lower bound: the smallest II
// that admits no positive-weight cycle (reusing the difMin/ISP
// machinery, found by binary search — validity is monotone in II).
// Returns -1 when no II up to maxII works.
func recMII(g *sched.Graph, maxII int) int {
	dg := &ddg.Graph{N: g.N()}
	dg.Edges = make([]ddg.Edge, 0, len(g.Edges))
	for _, e := range g.Edges {
		dg.Edges = append(dg.Edges, ddg.Edge{From: e.From, To: e.To, Dist: e.Dist, Delay: e.Lat})
	}
	if ii := mii.FindMinValid(dg, int64(maxII)); ii > 0 {
		return int(ii)
	}
	return -1
}

// pressure estimates register pressure of the pipelined schedule: each
// value's lifetime (def to last use, plus II per carried-dependence
// distance) spans ceil(lifetime/II) concurrent copies.
func pressure(ins []*ir.Instr, sigma []int, ii int) (pInt, pFloat int) {
	lastUse := map[int]int{} // reg -> latest consuming time
	defTime := map[int]int{}
	defType := map[int]source.Type{}
	for i, in := range ins {
		if in.Dst >= 0 {
			defTime[in.Dst] = sigma[i]
			defType[in.Dst] = in.Type
		}
	}
	for j, in := range ins {
		for _, r := range in.Uses() {
			dt, ok := defTime[r]
			if !ok {
				continue
			}
			use := sigma[j]
			if use < dt {
				use += ii // consumed by the next iteration's slot
			}
			if use > lastUse[r] {
				lastUse[r] = use
			}
		}
	}
	for r, dt := range defTime {
		lu, ok := lastUse[r]
		if !ok {
			lu = dt + 1
		}
		life := lu - dt
		if life < 1 {
			life = 1
		}
		copies := (life + ii - 1) / ii
		if defType[r] == source.TFloat {
			pFloat += copies
		} else {
			pInt += copies
		}
	}
	return pInt, pFloat
}
