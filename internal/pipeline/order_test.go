package pipeline

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"slms/internal/ir"
)

// applyOrder must order a block exactly as a stable sort by issue cycle
// does, ties kept in program order.
func TestApplyOrderIsStableByCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 500; k++ {
		n := rng.Intn(80)
		b := &ir.Block{Instrs: make([]*ir.Instr, n)}
		cycleOf := make([]int, n)
		for i := range b.Instrs {
			b.Instrs[i] = &ir.Instr{Dst: i}
			cycleOf[i] = rng.Intn(1 + n/3) // many ties
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(x, y int) int { return cmp.Compare(cycleOf[x], cycleOf[y]) })
		old := b.Instrs
		applyOrder(b, cycleOf)
		for pos, i := range idx {
			if b.Instrs[pos] != old[i] {
				t.Fatalf("case %d, cycles %v: position %d holds instruction %d, want %d",
					k, cycleOf, pos, b.Instrs[pos].Dst, i)
			}
		}
	}
}
