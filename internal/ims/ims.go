// Package ims implements machine-level iterative modulo scheduling
// (Rau, MICRO 1994) over the virtual ISA: the optimization the paper's
// strong final compilers (ICC, XLC) apply to innermost loops, and the
// baseline SLMS is compared against. The scheduler builds the
// instruction-level dependence graph (using the affine memory tags for
// disambiguation), reads its ResMII and RecMII from package sched,
// where both bounds are derived (RecMII once per graph), then places
// the loop with the Rau-style height-priority heuristic at the
// smallest II it can. An optional exact prover (package sched/exact,
// run through sched.Prove) refutes the IIs below the heuristic's
// schedule, reading the same bounds, and a lower schedule it finds is
// kept instead. Schedules whose register pressure exceeds the machine
// file are rejected — the failure mode of the paper's Figure 11.
package ims

import (
	"fmt"

	"slms/internal/ir"
	"slms/internal/machine"
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
	// Opt is the optimality verdict when a prover ran (Config.Prove);
	// nil otherwise.
	Opt *sched.Optimality
}

// Config configures the optional optimality proof of one ScheduleWith
// call; the zero value schedules with the heuristic alone.
type Config struct {
	// Prove, when non-nil, is an exact backend that runs after the
	// heuristic: it refutes the IIs below the heuristic's schedule
	// (Result.Opt), and a lower schedule it finds replaces the
	// heuristic's when it passes sched.Check and the register-pressure
	// test.
	Prove sched.Scheduler

	// place is the placement backend; nil is the Heuristic. Tests
	// substitute fakes.
	place sched.Scheduler
}

// EffortConfig resolves a scheduler name and effort level into a
// Config — the single validation point the pipeline, the CLIs and
// slmsd share. The heuristic always places the loop; scheduler "exact",
// or any effort, adds the exact prover, whose search budget the effort
// sets ("" or "standard" = the exact backend's default, "quick" = a
// small budget, "max" = unlimited). So "exact" without an effort is
// "ims" at "standard", and the two names agree at every effort.
func EffortConfig(scheduler, effort string) (Config, error) {
	switch scheduler {
	case "", "ims", "exact":
	default:
		return Config{}, fmt.Errorf("unknown scheduler %q (want ims or exact)", scheduler)
	}
	var budget int
	switch effort {
	case "", "standard":
	case "quick":
		budget = 20_000
	case "max":
		budget = -1
	default:
		return Config{}, fmt.Errorf("unknown effort %q (want quick, standard or max)", effort)
	}
	if scheduler != "exact" && effort == "" {
		return Config{}, nil
	}
	return Config{Prove: &exact.Sched{Budget: budget}}, nil
}

// Schedule modulo-schedules the body block of an innermost loop with
// the heuristic alone. useTags enables affine memory disambiguation.
func Schedule(b *ir.Block, d *machine.Desc, useTags bool) *Result {
	return ScheduleWith(b, d, useTags, Config{})
}

// ScheduleWith is Schedule with an explicit configuration. The
// heuristic places the loop at the smallest II it can. With cfg.Prove
// set, sched.Prove then refutes the IIs below the heuristic's schedule;
// the lower schedule it hands back on a gap (or when the heuristic
// found none) is kept when it passes sched.Check and the
// register-pressure test. Opt.HeurII stays the heuristic's II.
func ScheduleWith(b *ir.Block, d *machine.Desc, useTags bool, cfg Config) *Result {
	ins := withoutBranch(b.Instrs)
	n := len(ins)
	res := &Result{}
	if n == 0 {
		res.Reason = "empty body"
		return res
	}
	g := BuildGraph(ins, d, useTags)

	res.ResMII = sched.ResourceMinII(g, d)
	res.RecMII = g.RecMII()
	if res.RecMII == 0 || res.RecMII > 4*n+16 {
		res.RecMII = -1
		res.Reason = "no feasible II (unresolvable recurrence)"
		return res
	}
	start := max(res.ResMII, res.RecMII, 1)
	maxII := start + n + 8
	place := cfg.place
	if place == nil {
		place = Heuristic{}
	}
	var sc *sched.Schedule
	for ii := start; ii <= maxII && sc == nil; ii++ {
		sc, _ = place.Schedule(g, d, ii)
	}
	if sc == nil {
		res.Reason = fmt.Sprintf("no schedule up to II=%d", maxII)
	} else {
		res.take(ins, g, d, sc)
	}
	if cfg.Prove == nil {
		return res
	}
	// The heuristic's schedule is the feasibility witness at its II once
	// sched.Check accepts it; one that fails the check proves nothing,
	// and the exact search decides alone. The II counts even when
	// register pressure rejected the schedule — the gap question is
	// about the II.
	heurII := 0
	if sched.Check(g, d, sc) == nil {
		heurII = sc.II
	}
	res.Opt = sched.Prove(g, d, cfg.Prove, heurII, maxII)
	if s := res.Opt.Schedule; s != nil && sched.Check(g, d, s) == nil {
		kept := *res
		kept.take(ins, g, d, s)
		if kept.OK {
			*res = kept
		}
	}
	return res
}

// take fills the schedule-derived fields from s — II, schedule length,
// stages and register pressure — and accepts s unless its pressure
// exceeds the machine's register files.
func (r *Result) take(ins []*ir.Instr, g *sched.Graph, d *machine.Desc, s *sched.Schedule) {
	sl := 0
	for i, t := range s.Time {
		if e := t + g.Nodes[i].Lat; e > sl {
			sl = e
		}
	}
	r.II = s.II
	r.SL = sl + d.Lat.Branch
	r.Stages = (r.SL + s.II - 1) / s.II
	r.PressInt, r.PressFloat = pressure(ins, s.Time, s.II)
	r.OK = r.PressInt <= d.IntRegs && r.PressFloat <= d.FPRegs
	r.Reason = ""
	if !r.OK {
		r.Reason = fmt.Sprintf("register pressure (%d int / %d fp) exceeds file (%d/%d)",
			r.PressInt, r.PressFloat, d.IntRegs, d.FPRegs)
	}
}

func withoutBranch(ins []*ir.Instr) []*ir.Instr {
	if len(ins) > 0 && ins[len(ins)-1].Op.IsBranch() {
		return ins[:len(ins)-1]
	}
	return ins
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
