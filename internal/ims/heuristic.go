package ims

import (
	"slms/internal/machine"
	"slms/internal/sched"
)

// Heuristic is Rau's iterative modulo scheduling placement as a
// sched.Scheduler: a height-priority worklist filling the modulo
// reservation table with eviction-based backtracking under a budget of
// 6n+32 placements. A failure (ErrGiveUp) means the heuristic gave up,
// not that the II is infeasible.
type Heuristic struct{}

// Schedule attempts to place every node at initiation interval ii,
// with eviction-based backtracking (Rau's iterative scheme). The
// height-based priority order is memoized on the graph — the II search
// retries this backend at bumped IIs, and the order never changes with
// the II, so it is derived exactly once per graph (see
// sched.Graph.PriorityOrder).
func (Heuristic) Schedule(g *sched.Graph, d *machine.Desc, ii int) (*sched.Schedule, error) {
	n := g.N()
	if ii < 1 {
		return nil, sched.ErrGiveUp
	}
	budget := 6*n + 32

	preds := make([][]sched.Edge, n)
	succs := make([][]sched.Edge, n)
	for _, e := range g.Edges {
		preds[e.To] = append(preds[e.To], e)
		succs[e.From] = append(succs[e.From], e)
	}
	order := g.PriorityOrder()

	sigma := make([]int, n)
	placed := make([]bool, n)
	prevTime := make([]int, n)
	for i := range prevTime {
		prevTime[i] = -1
	}
	// Modulo reservation table: per row, per FU usage and total issue.
	type rowUse struct {
		fu    [4]int
		total int
	}
	rt := make([]rowUse, ii)
	iw := sched.IssueWidthOf(d)
	units := func(fu machine.FU) int { return sched.UnitsOf(d, fu) }

	fits := func(i, t int) bool {
		row := ((t % ii) + ii) % ii
		fu := g.Nodes[i].FU
		return rt[row].fu[fu] < units(fu) && rt[row].total < iw
	}
	place := func(i, t int) {
		row := ((t % ii) + ii) % ii
		fu := g.Nodes[i].FU
		rt[row].fu[fu]++
		rt[row].total++
		sigma[i] = t
		placed[i] = true
		prevTime[i] = t
	}
	remove := func(i int) {
		row := ((sigma[i] % ii) + ii) % ii
		fu := g.Nodes[i].FU
		rt[row].fu[fu]--
		rt[row].total--
		placed[i] = false
	}

	// The worklist pick is the first unplaced node in the precomputed
	// (height desc, index asc) order — identical to rescanning for the
	// max-height unplaced node, without the per-pick rescan or the
	// per-II re-sort.
	pick := func() int {
		for _, i := range order {
			if !placed[i] {
				return i
			}
		}
		return -1
	}

	for remaining := n; remaining > 0; {
		i := pick()
		if i < 0 {
			break
		}
		est := 0
		for _, e := range preds[i] {
			if placed[e.From] {
				if v := sigma[e.From] + int(e.Lat) - ii*int(e.Dist); v > est {
					est = v
				}
			}
		}
		if prevTime[i] >= 0 && est <= prevTime[i] {
			est = prevTime[i] + 1
		}
		slot := -1
		for t := est; t < est+ii; t++ {
			if fits(i, t) {
				slot = t
				break
			}
		}
		force := false
		if slot < 0 {
			slot = est
			force = true
		}
		if force {
			// Evict conflicting instructions in the target row.
			row := ((slot % ii) + ii) % ii
			fu := g.Nodes[i].FU
			for j := 0; j < n; j++ {
				if !placed[j] || j == i {
					continue
				}
				jr := ((sigma[j] % ii) + ii) % ii
				if jr == row && (g.Nodes[j].FU == fu || rt[row].total >= iw) {
					remove(j)
					remaining++
				}
				if fits(i, slot) {
					break
				}
			}
			if !fits(i, slot) {
				return nil, sched.ErrGiveUp
			}
		}
		place(i, slot)
		remaining--
		// Displace placed successors whose constraint broke.
		for _, e := range succs[i] {
			if placed[e.To] && sigma[e.To] < sigma[i]+int(e.Lat)-ii*int(e.Dist) {
				remove(e.To)
				remaining++
			}
		}
		budget--
		if budget <= 0 && remaining > 0 {
			return nil, sched.ErrGiveUp
		}
	}
	for i := 0; i < n; i++ {
		if !placed[i] {
			return nil, sched.ErrGiveUp
		}
	}
	// Normalize: shift so the earliest slot is 0.
	if n > 0 {
		min := sigma[0]
		for _, s := range sigma {
			if s < min {
				min = s
			}
		}
		for i := range sigma {
			sigma[i] -= min
		}
	}
	return &sched.Schedule{II: ii, Time: sigma}, nil
}
