// Package exact implements an SDC-based exact modulo scheduler: at a
// fixed candidate II it either returns a schedule or an UNSAT
// certificate proving none exists. sched.Prove runs it below the
// heuristic's schedule, which turns each loop's schedule into an
// optimality proof or a lower schedule.
//
// Formulation. Issue times must satisfy the system of difference
// constraints (SDC) the dependence edges induce,
//
//	t(v) − t(u) ≥ lat(u,v) − II·dist(u,v),
//
// and the modulo reservation table bounds how many instructions may
// share a residue row t mod II per functional unit and in total.
// Decompose t(v) = ρ(v) + II·σ(v) with residue ρ(v) ∈ [0, II): resource
// feasibility depends only on the ρ assignment, and for a fixed ρ the
// difference constraints become difference constraints on σ,
//
//	σ(v) − σ(u) ≥ ⌈(lat − II·dist − ρ(v) + ρ(u)) / II⌉,
//
// which are decidable by longest-path feasibility (no positive cycle).
// The scheduler therefore branch-and-bounds over residue assignments in
// priority order, pruning with the reservation table and with an
// incremental Bellman–Ford over the σ-constraints among assigned nodes
// (a trail undoes potential updates on backtrack). Schedules are
// translation-invariant — shifting every t by one rotates the
// reservation rows — so the first node's residue is fixed at 0, a
// symmetry break that loses no solutions.
//
// Soundness of UNSAT: both prunes are relaxations (ignoring unassigned
// nodes only removes constraints), so a completed search refutes every
// ρ assignment and no schedule exists at the II. The root-level checks
// give the cheap, independently re-checkable certificates: a positive
// cycle in the t-SDC (via the mii Bellman–Ford cycle extraction) or a
// functional-unit count exceeding II rows. A refutation that needed
// the enumeration itself is certified as sched.UnsatSearch.
package exact

import (
	"slms/internal/machine"
	"slms/internal/sched"
)

// DefaultBudget is the branch-and-bound node budget when none is
// configured: generous for kernel-scale loop bodies (tens of
// instructions), final for adversarial ones — the prover then reports
// budget-exhausted instead of stalling a compile.
const DefaultBudget = 200_000

// Sched is the exact backend. The zero value uses DefaultBudget.
type Sched struct {
	// Budget bounds the branch-and-bound nodes expanded per Schedule
	// call (0 = DefaultBudget, negative = unlimited).
	Budget int
}

// Schedule implements sched.Scheduler: a schedule at ii, an
// *sched.Unsat proof that none exists, or an *sched.Budget cut.
func (s *Sched) Schedule(g *sched.Graph, d *machine.Desc, ii int) (*sched.Schedule, error) {
	n := g.N()
	if ii < 1 {
		return nil, &sched.Unsat{II: ii, Kind: sched.UnsatResource, Visited: 1}
	}
	if n == 0 {
		return &sched.Schedule{II: ii, Time: []int{}}, nil
	}

	// Root certificate 1: counting bound. More instructions in a class
	// than II rows can hold is unconditionally infeasible.
	if u := resourceUnsat(g, d, ii); u != nil {
		return nil, u
	}
	// Root certificate 2: positive cycle in the t-SDC. The mii
	// Bellman–Ford machinery extracts the infeasible constraint cycle.
	if u := cycleUnsat(g, ii); u != nil {
		return nil, u
	}

	st := newSearch(g, d, ii, s.Budget)
	return st.run()
}

// resourceUnsat checks the per-class and issue-width counting bounds.
func resourceUnsat(g *sched.Graph, d *machine.Desc, ii int) *sched.Unsat {
	var counts [4]int
	for _, nd := range g.Nodes {
		counts[nd.FU]++
	}
	for fu, c := range counts {
		if units := sched.UnitsOf(d, machine.FU(fu)); c > ii*units {
			return &sched.Unsat{II: ii, Kind: sched.UnsatResource, FU: fu, Count: c, Units: units, Visited: 1}
		}
	}
	if iw := sched.IssueWidthOf(d); len(g.Nodes) > ii*iw {
		return &sched.Unsat{II: ii, Kind: sched.UnsatResource, FU: -1, Count: len(g.Nodes), Units: iw, Visited: 1}
	}
	return nil
}
