package exact

import (
	"fmt"
	"math"

	"slms/internal/machine"
	"slms/internal/sched"
)

// sEdge is one active σ-constraint σ(to) − σ(from) ≥ w.
type sEdge struct {
	to int
	w  int64
}

// search is one branch-and-bound run at a fixed II.
type search struct {
	g  *sched.Graph
	d  *machine.Desc
	ii int
	n  int

	budget  int
	visited int

	order []int // residue-assignment order (height priority)
	rho   []int // assigned residue per node, −1 = unassigned

	// Modulo reservation table.
	rowFU    [][4]int
	rowTotal []int
	units    [4]int
	iw       int

	// inc[x] lists the indices of graph edges incident to x.
	inc [][]int

	// Incremental Bellman–Ford state over the σ-constraints among
	// assigned nodes: longest-path potentials, active adjacency, and an
	// undo trail of potential overwrites.
	pot   []int64
	sadj  [][]sEdge
	trail []potSave
	queue []int

	// relaxEpoch/relaxCnt bound relaxations per propagation: a node
	// relaxed more than n times proves a positive cycle.
	relaxEpoch []int
	relaxCnt   []int
	epoch      int
}

type potSave struct {
	node int
	old  int64
}

func newSearch(g *sched.Graph, d *machine.Desc, ii, budget int) *search {
	n := g.N()
	if budget == 0 {
		budget = DefaultBudget
	} else if budget < 0 {
		budget = math.MaxInt
	}
	st := &search{
		g: g, d: d, ii: ii, n: n, budget: budget,
		order:      g.PriorityOrder(),
		rho:        make([]int, n),
		rowFU:      make([][4]int, ii),
		rowTotal:   make([]int, ii),
		iw:         sched.IssueWidthOf(d),
		inc:        make([][]int, n),
		pot:        make([]int64, n),
		sadj:       make([][]sEdge, n),
		relaxEpoch: make([]int, n),
		relaxCnt:   make([]int, n),
	}
	for fu := range st.units {
		st.units[fu] = sched.UnitsOf(d, machine.FU(fu))
	}
	for i := range st.rho {
		st.rho[i] = -1
	}
	for idx, e := range g.Edges {
		st.inc[e.From] = append(st.inc[e.From], idx)
		if e.To != e.From {
			st.inc[e.To] = append(st.inc[e.To], idx)
		}
	}
	return st
}

// errBudget is the internal sentinel unwinding the DFS on a budget cut.
type errBudget struct{}

func (errBudget) Error() string { return "budget" }

func (st *search) run() (*sched.Schedule, error) {
	s, err := st.dfs(0)
	if err != nil {
		return nil, &sched.Budget{II: st.ii, Visited: st.visited}
	}
	if s == nil {
		return nil, &sched.Unsat{II: st.ii, Kind: sched.UnsatSearch, Visited: st.visited}
	}
	if cerr := sched.Check(st.g, st.d, s); cerr != nil {
		// An internal invariant broke; never hand out an unverifiable
		// schedule.
		return nil, fmt.Errorf("exact: produced invalid schedule: %w", cerr)
	}
	s.Visited = st.visited
	return s, nil
}

// dfs assigns a residue to order[k] and recurses. Returns (nil, nil)
// when every branch below is refuted.
func (st *search) dfs(k int) (*sched.Schedule, error) {
	if k == st.n {
		return st.extract(), nil
	}
	x := st.order[k]
	// Translation symmetry: the first node's residue is fixed at 0 —
	// shifting every issue time rotates residues and reservation rows,
	// so any schedule has an equivalent with ρ(order[0]) = 0.
	hi := st.ii
	if k == 0 {
		hi = 1
	}
	fu := st.g.Nodes[x].FU
	for r := 0; r < hi; r++ {
		st.visited++
		if st.visited > st.budget {
			return nil, errBudget{}
		}
		if st.rowFU[r][fu] >= st.units[fu] || st.rowTotal[r] >= st.iw {
			continue // row full for this class: sound prune
		}
		st.rowFU[r][fu]++
		st.rowTotal[r]++
		st.rho[x] = r

		trailLen := len(st.trail)
		added, ok := st.link(x)
		if ok {
			s, err := st.dfs(k + 1)
			if s != nil || err != nil {
				return s, err
			}
		}
		// Undo: potentials (reverse order), σ-edges, reservation.
		for i := len(st.trail) - 1; i >= trailLen; i-- {
			st.pot[st.trail[i].node] = st.trail[i].old
		}
		st.trail = st.trail[:trailLen]
		for i := len(added) - 1; i >= 0; i-- {
			u := added[i]
			st.sadj[u] = st.sadj[u][:len(st.sadj[u])-1]
		}
		st.rho[x] = -1
		st.rowFU[r][fu]--
		st.rowTotal[r]--
	}
	return nil, nil
}

// link activates the σ-constraints between x and the already-assigned
// nodes and propagates. It returns the source nodes of the edges it
// added (for undo) and whether the system stayed feasible.
func (st *search) link(x int) (added []int, ok bool) {
	ii64 := int64(st.ii)
	for _, idx := range st.inc[x] {
		e := st.g.Edges[idx]
		if e.From == e.To {
			// σ(x) − σ(x) ≥ w: feasible iff w ≤ 0.
			if ceilDiv(e.Lat-ii64*e.Dist-0, ii64) > 0 {
				return added, false
			}
			continue
		}
		other := e.From
		if other == x {
			other = e.To
		}
		if st.rho[other] < 0 {
			continue // other endpoint unassigned: constraint relaxed away
		}
		w := ceilDiv(e.Lat-ii64*e.Dist-int64(st.rho[e.To])+int64(st.rho[e.From]), ii64)
		st.sadj[e.From] = append(st.sadj[e.From], sEdge{to: e.To, w: w})
		added = append(added, e.From)
		if !st.relaxFrom(e.From, e.To, w) {
			return added, false
		}
	}
	return added, true
}

// relaxFrom seeds one new constraint and runs the incremental
// Bellman–Ford propagation over the active σ-edges. Returns false on a
// positive cycle. The fast path is label-correcting with a per-node
// relaxation counter; a node relaxed more than n times is a cycle
// *suspect* — not yet a proof, since label-correcting order can revisit
// a node once per distinct path weight — so the suspect escalates to a
// full synchronous Bellman–Ford, which is sound in both directions.
func (st *search) relaxFrom(u, v int, w int64) bool {
	st.epoch++
	st.queue = st.queue[:0]
	if !st.bump(v, st.pot[u]+w) {
		return st.fullBF()
	}
	for len(st.queue) > 0 {
		x := st.queue[len(st.queue)-1]
		st.queue = st.queue[:len(st.queue)-1]
		px := st.pot[x]
		for _, se := range st.sadj[x] {
			if !st.bump(se.to, px+se.w) {
				return st.fullBF()
			}
		}
	}
	return true
}

// bump raises pot[v] to at least val, trailing the overwrite and
// queueing v for further propagation. Returns false when v's relaxation
// count makes it a positive-cycle suspect (caller escalates to fullBF).
func (st *search) bump(v int, val int64) bool {
	if val <= st.pot[v] {
		return true
	}
	if st.relaxEpoch[v] != st.epoch {
		st.relaxEpoch[v] = st.epoch
		st.relaxCnt[v] = 0
	}
	st.relaxCnt[v]++
	if st.relaxCnt[v] > st.n {
		return false
	}
	st.trail = append(st.trail, potSave{node: v, old: st.pot[v]})
	st.pot[v] = val
	st.queue = append(st.queue, v)
	return true
}

// fullBF decides feasibility of the active σ-system outright:
// synchronous longest-path rounds from the current potentials. Current
// potentials are walk weights, hence below the least fixpoint whenever
// one exists, and without a positive cycle every walk is dominated by a
// simple path (< n edges), so n rounds converge; a round n+1 relaxation
// proves a positive cycle. All updates are trailed for undo.
func (st *search) fullBF() bool {
	st.queue = st.queue[:0]
	for pass := 0; pass < st.n; pass++ {
		changed := false
		for u := 0; u < st.n; u++ {
			pu := st.pot[u]
			for _, se := range st.sadj[u] {
				if v := pu + se.w; v > st.pot[se.to] {
					st.trail = append(st.trail, potSave{node: se.to, old: st.pot[se.to]})
					st.pot[se.to] = v
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	for u := 0; u < st.n; u++ {
		pu := st.pot[u]
		for _, se := range st.sadj[u] {
			if pu+se.w > st.pot[se.to] {
				return false // still relaxing after n rounds: positive cycle
			}
		}
	}
	return true
}

// extract materializes issue times from the residues and σ-potentials:
// t(v) = ρ(v) + II·σ(v), normalized so the earliest is 0 (a pure
// translation, which rotates reservation rows but breaks nothing).
func (st *search) extract() *sched.Schedule {
	t := make([]int64, st.n)
	min := int64(math.MaxInt64)
	for v := 0; v < st.n; v++ {
		t[v] = int64(st.rho[v]) + int64(st.ii)*st.pot[v]
		if t[v] < min {
			min = t[v]
		}
	}
	out := make([]int, st.n)
	for v := range t {
		out[v] = int(t[v] - min)
	}
	return &sched.Schedule{II: st.ii, Time: out}
}

// ceilDiv is ⌈a/b⌉ for b > 0 and any a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}
