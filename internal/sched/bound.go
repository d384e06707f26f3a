package sched

import (
	"sync/atomic"

	"slms/internal/ddg"
	"slms/internal/machine"
	"slms/internal/mii"
)

// UnitsOf returns the machine's unit count for a class, normalized the
// way every backend (and the resource bound) treats a description: a
// class with no declared units still executes, one at a time.
func UnitsOf(d *machine.Desc, fu machine.FU) int {
	if u := d.Units[fu]; u > 0 {
		return u
	}
	return 1
}

// IssueWidthOf normalizes the issue width the same way.
func IssueWidthOf(d *machine.Desc) int {
	if d.IssueWidth > 0 {
		return d.IssueWidth
	}
	return 1
}

// classCounts is the number of nodes of each functional-unit class.
func classCounts(g *Graph) [4]int {
	var counts [4]int
	for _, n := range g.Nodes {
		counts[n.FU]++
	}
	return counts
}

// ResourceMinII is the resource-constrained lower bound over the graph:
// the smallest II whose reservation table has a row for every node.
func ResourceMinII(g *Graph, d *machine.Desc) int {
	iw := IssueWidthOf(d)
	m := (len(g.Nodes) + iw - 1) / iw
	for fu, c := range classCounts(g) {
		if c == 0 {
			continue
		}
		units := UnitsOf(d, machine.FU(fu))
		if v := (c + units - 1) / units; v > m {
			m = v
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// BoundUnsat is the certificate the two bounds give against ii: the
// counting certificate when ii is below ResourceMinII, else the cycle
// certificate when ii is below RecMII, else nil. Every II below
// max(ResourceMinII, RecMII) gets one, and Unsat.Recheck verifies it
// arithmetically. These are the exact backend's root checks and Prove's
// lower-bound certificate.
func BoundUnsat(g *Graph, d *machine.Desc, ii int) *Unsat {
	if u := resourceUnsat(g, d, ii); u != nil {
		return u
	}
	return cycleUnsat(g, ii)
}

// resourceUnsat is the counting certificate against ii: the first class
// with more nodes than ii rows of its units hold, else the issue width
// when it overflows, else nil. An ii below 1 has no rows at all.
func resourceUnsat(g *Graph, d *machine.Desc, ii int) *Unsat {
	if ii < 1 {
		return &Unsat{II: ii, Kind: UnsatResource, Visited: 1}
	}
	for fu, c := range classCounts(g) {
		if units := UnitsOf(d, machine.FU(fu)); c > ii*units {
			return &Unsat{II: ii, Kind: UnsatResource, FU: fu, Count: c, Units: units, Visited: 1}
		}
	}
	if iw := IssueWidthOf(d); len(g.Nodes) > ii*iw {
		return &Unsat{II: ii, Kind: UnsatResource, FU: -1, Count: len(g.Nodes), Units: iw, Visited: 1}
	}
	return nil
}

// cycleExtractions counts the binding-cycle extractions cycleUnsat ran:
// the guard that no probe at or above the recurrence bound runs one.
var cycleExtractions atomic.Int64

// CycleExtractions reads the process-wide extraction count (test hook).
func CycleExtractions() int64 { return cycleExtractions.Load() }

// cycleUnsat is the cycle certificate against ii: a dependence cycle
// whose total latency exceeds ii·(total distance), which no assignment
// of issue times satisfies whatever the resources. At or above the
// recurrence bound there is none, and nothing is extracted; below it
// the mii Bellman–Ford extraction names the cycle, its edges copied
// field for field from the graph so Unsat.Recheck's membership test
// verifies them exactly.
func cycleUnsat(g *Graph, ii int) *Unsat {
	if rec := g.RecMII(); rec > 0 && ii >= rec {
		return nil
	}
	cycleExtractions.Add(1)
	cyc := mii.BindingCycle(ddgView(g), int64(ii))
	if cyc == nil {
		return nil
	}
	u := &Unsat{II: ii, Kind: UnsatCycle, Visited: 1}
	for _, e := range cyc {
		u.Cycle = append(u.Cycle, Edge{From: e.From, To: e.To, Dist: e.Dist, Lat: e.Delay})
	}
	return u
}

// recurrenceBound derives RecMII with the mii galloping search.
// Distances are non-negative, so validity is monotone in the II, and a
// simple cycle's latency is at most the sum of the positive edge
// latencies: an II that large satisfies every cycle of positive
// distance, so the search ceiling loses no answer, and a graph invalid
// even there has a positive cycle of distance 0.
func recurrenceBound(g *Graph) int {
	ceiling := int64(1)
	for _, e := range g.Edges {
		ceiling += max(e.Lat, 0)
	}
	return int(mii.FindMinValid(ddgView(g), ceiling))
}

// ddgView is the graph as the mii Bellman–Ford code reads it
// (Delay ← Lat).
func ddgView(g *Graph) *ddg.Graph {
	dg := &ddg.Graph{N: g.N(), Edges: make([]ddg.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		dg.Edges[i] = ddg.Edge{From: e.From, To: e.To, Dist: e.Dist, Delay: e.Lat}
	}
	return dg
}
