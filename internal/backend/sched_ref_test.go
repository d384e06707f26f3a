package backend

import (
	"slices"

	"slms/internal/ir"
	"slms/internal/machine"
)

// The reference dependence DAG: every ordering constraint of a block,
// with an edge between every conflicting pair of memory accesses.
// blockDeps emits a transitively reduced DAG, and the list scheduler
// must give exactly the same schedules over either.

// refBlockDeps returns every ordering constraint of the block: RAW, WAW
// and WAR register edges, an edge between every conflicting pair of
// memory accesses, and an edge from every instruction to a branch.
func refBlockDeps(ins []*ir.Instr, d *machine.Desc, useTags bool) []depEdge {
	lastDef := map[int]int{}
	usesSince := map[int][]int{}
	var edges []depEdge
	edge := func(i, j, lat int) {
		edges = append(edges, depEdge{int32(i), int32(j), int32(lat)})
	}
	var mems []int
	for j, in := range ins {
		for _, r := range in.AppendUses(nil) {
			if i, ok := lastDef[r]; ok {
				edge(i, j, d.Latency(ins[i])) // RAW
			}
			usesSince[r] = append(usesSince[r], j)
		}
		if r := in.Dst; r >= 0 {
			if i, ok := lastDef[r]; ok {
				edge(i, j, 1) // WAW
			}
			for _, u := range usesSince[r] {
				if u != j {
					edge(u, j, 0) // WAR
				}
			}
			lastDef[r] = j
			usesSince[r] = nil
		}
		if in.Op.IsMem() {
			for _, i := range mems {
				p := ins[i]
				if p.Op == ir.Load && in.Op == ir.Load || !memConflict(p, in, useTags) {
					continue
				}
				lat := 0
				if p.Op == ir.Store {
					lat = d.Lat.Store
				}
				edge(i, j, lat)
			}
			mems = append(mems, j)
		}
		if in.Op.IsBranch() {
			for i := 0; i < j; i++ {
				edge(i, j, 0)
			}
		}
	}
	return edges
}

// refListSchedule is ListSchedule over refBlockDeps' DAG.
func refListSchedule(b *ir.Block, d *machine.Desc, useTags bool, window int) *BlockSched {
	ins := b.Instrs
	s := &BlockSched{CycleOf: make([]int, len(ins))}
	if len(ins) == 0 {
		s.Len, s.SteadyLen = 1, 1
		return s
	}
	sc := getScratch(ins)
	s.Bundles = sc.list(ins, d, refBlockDeps(ins, d, useTags), window, s.CycleOf)
	s.Len = slices.Max(s.CycleOf) + d.Lat.Branch
	s.SteadyLen = s.Len + sc.carriedStall(ins, s.CycleOf, s.Len, d)
	sc.release(ins)
	return s
}
