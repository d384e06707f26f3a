// Package sched defines the machine-level modulo-scheduling interface
// the strong final compilers draw from. A Scheduler attempts to place
// the instructions of one loop body into a modulo reservation table at
// a fixed candidate initiation interval; the II search and the
// register-pressure test stay in the driver (package ims).
//
// Two implementations exist: Rau's iterative modulo scheduling
// heuristic (package ims), which always places the loop, and an
// SDC-based exact scheduler (package sched/exact) whose per-II failures
// are proofs — it returns an UNSAT certificate instead of giving up.
// Prove (prove.go) runs the exact scheduler below the heuristic's
// checked schedule, refuting the smaller IIs or handing back a lower
// schedule.
//
// The lower bounds on the II and their certificates have one
// implementation each, in bound.go: ResourceMinII, the recurrence bound
// Graph.RecMII (derived once per graph, with the priority order) and
// BoundUnsat, the certificate they give against any II below them. The
// driver, Prove and the exact backend's root checks all read them
// there; Check and Unsat.Recheck, the independent checkers, do not.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"slms/internal/machine"
)

// Node is one schedulable instruction of a loop body: its functional
// unit class and result latency are all a modulo scheduler needs.
type Node struct {
	FU  machine.FU
	Lat int
}

// Edge is a machine-level dependence with its <iteration-distance,
// latency> label: any schedule must satisfy
//
//	t(To) ≥ t(From) + Lat − II·Dist.
type Edge struct {
	From, To int
	Dist     int64
	Lat      int64
}

// Graph is the instruction-level dependence graph of one loop body,
// the common input of every Scheduler backend.
type Graph struct {
	Nodes []Node
	Edges []Edge

	// Memoized by derive, once per graph: the height-based priority
	// (see PriorityOrder) and the recurrence bound (see RecMII). Neither
	// depends on the candidate II, so one computation serves every
	// probe of the II search, heuristic or exact, and Prove.
	prio    []int
	heights []int64
	recMII  int
	once    sync.Once
}

// N is the node count.
func (g *Graph) N() int { return len(g.Nodes) }

// Schedule is a modulo schedule at initiation interval II: Time[i] is
// the issue cycle of node i (normalized so the earliest is 0); the
// reservation-table row of node i is Time[i] mod II.
type Schedule struct {
	II   int
	Time []int
	// Visited is the branch-and-bound nodes an exact backend expanded
	// to find the schedule (0 for heuristic backends).
	Visited int
}

// Scheduler is one modulo-scheduling backend.
type Scheduler interface {
	// Schedule attempts to place every node at initiation interval ii.
	// Failures are ErrGiveUp (heuristic exhausted, proves nothing), an
	// *Unsat certificate (exact backends), or *Budget (exact backend
	// ran out of search budget before either outcome).
	Schedule(g *Graph, d *machine.Desc, ii int) (*Schedule, error)
}

// ErrGiveUp reports a heuristic failure at one II: the backend could
// not place every instruction within its effort bound. It proves
// nothing about feasibility — the II search just moves on.
var ErrGiveUp = errors.New("sched: backend gave up at this II (not a proof of infeasibility)")

// Budget reports that an exact backend exhausted its search budget at
// one II with neither a schedule nor an UNSAT proof.
type Budget struct {
	II      int
	Visited int // branch-and-bound nodes expanded before the cut
}

func (b *Budget) Error() string {
	return fmt.Sprintf("sched: exact search budget exhausted at II=%d after %d nodes", b.II, b.Visited)
}

// Check verifies a schedule against the graph and machine: every
// dependence edge holds under the modulo timing, and no reservation-
// table row overflows a functional unit or the issue width. A nil
// return is the self-check every backend's output must pass (the fuzz
// harness and the differential battery both enforce it).
func Check(g *Graph, d *machine.Desc, s *Schedule) error {
	if s == nil {
		return errors.New("sched: nil schedule")
	}
	if s.II < 1 {
		return fmt.Errorf("sched: invalid II=%d", s.II)
	}
	if len(s.Time) != len(g.Nodes) {
		return fmt.Errorf("sched: schedule covers %d of %d nodes", len(s.Time), len(g.Nodes))
	}
	for _, e := range g.Edges {
		if int64(s.Time[e.To]) < int64(s.Time[e.From])+e.Lat-int64(s.II)*e.Dist {
			return fmt.Errorf("sched: edge %d->%d <dist=%d,lat=%d> violated: t=%d vs t=%d at II=%d",
				e.From, e.To, e.Dist, e.Lat, s.Time[e.From], s.Time[e.To], s.II)
		}
	}
	type rowUse struct {
		fu    [4]int
		total int
	}
	rows := make([]rowUse, s.II)
	for i, n := range g.Nodes {
		row := ((s.Time[i] % s.II) + s.II) % s.II
		rows[row].fu[n.FU]++
		rows[row].total++
		if rows[row].fu[n.FU] > UnitsOf(d, n.FU) {
			return fmt.Errorf("sched: row %d overflows %v units (%d > %d)",
				row, n.FU, rows[row].fu[n.FU], UnitsOf(d, n.FU))
		}
		if rows[row].total > IssueWidthOf(d) {
			return fmt.Errorf("sched: row %d overflows issue width (%d > %d)",
				row, rows[row].total, IssueWidthOf(d))
		}
	}
	return nil
}

// priorityComputations counts how many times a Graph actually derived
// its height order and recurrence bound — the regression guard for the
// II-retry path, which used to re-sort the invariant priority on every
// II bump, and for the prover, which used to derive the recurrence
// bound again. See TestRecurrenceBoundDerivedOncePerGraph.
var priorityComputations atomic.Int64

// PriorityComputations reads the process-wide derivation count (test
// hook).
func PriorityComputations() int64 { return priorityComputations.Load() }

// Heights returns the height-based priority of every node: the longest
// latency path to any sink through distance-0 edges — the classic Rau
// ordering. The result is memoized on the graph; callers must not
// mutate it.
func (g *Graph) Heights() []int64 {
	g.once.Do(g.derive)
	return g.heights
}

// PriorityOrder returns the node indices sorted by (height descending,
// index ascending) — the exact pick order of the IMS worklist. It is
// computed once per graph: the order depends only on the distance-0
// subgraph and latencies, which the II search never changes, so every
// retry at a bumped II reuses it.
func (g *Graph) PriorityOrder() []int {
	g.once.Do(g.derive)
	return g.prio
}

// RecMII returns the recurrence bound: the smallest II at which no
// dependence cycle's latency exceeds II times its distance, or 0 when
// no II is (a positive cycle of distance 0). It is memoized with the
// priority order, and the driver's II search, Prove and every exact
// root check read this one result.
func (g *Graph) RecMII() int {
	g.once.Do(g.derive)
	return g.recMII
}

func (g *Graph) derive() {
	priorityComputations.Add(1)
	g.recMII = recurrenceBound(g)
	n := len(g.Nodes)
	succs := make([][]Edge, n)
	for _, e := range g.Edges {
		succs[e.From] = append(succs[e.From], e)
	}
	height := make([]int64, n)
	for changed, rounds := true, 0; changed && rounds < n+2; rounds++ {
		changed = false
		for i := n - 1; i >= 0; i-- {
			h := int64(0)
			for _, e := range succs[i] {
				if e.Dist == 0 {
					if v := height[e.To] + e.Lat; v > h {
						h = v
					}
				}
			}
			if h > height[i] {
				height[i] = h
				changed = true
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if height[order[a]] != height[order[b]] {
			return height[order[a]] > height[order[b]]
		}
		return order[a] < order[b]
	})
	g.heights = height
	g.prio = order
}
