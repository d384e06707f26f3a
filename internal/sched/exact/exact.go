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
// ρ assignment and no schedule exists at the II. The root check gives
// the cheap, independently re-checkable certificates: an II below the
// resource or recurrence bound is refuted by sched.BoundUnsat, the one
// implementation of both bounds, with a functional-unit count
// exceeding II rows or a positive cycle in the t-SDC. The recurrence
// bound is derived once per graph, so a probe at or above it runs no
// cycle extraction. A refutation that needed the enumeration itself is
// certified as sched.UnsatSearch.
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
	// Root certificates: an ii below either analytic bound is
	// unconditionally infeasible, and sched.BoundUnsat says why.
	if u := sched.BoundUnsat(g, d, ii); u != nil {
		return nil, u
	}
	if g.N() == 0 {
		return &sched.Schedule{II: ii, Time: []int{}}, nil
	}
	return newSearch(g, d, ii, s.Budget).run()
}
