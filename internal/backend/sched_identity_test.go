package backend

import (
	"math/rand"
	"slices"
	"testing"

	"slms/internal/dep"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/source"
)

// allMachines returns the four evaluation machines.
func allMachines() []*machine.Desc {
	return []*machine.Desc{machine.IA64Like(), machine.Power4Like(), machine.PentiumLike(), machine.ARM7Like()}
}

// sameSchedule reports how got differs from the reference schedule, or
// "" when they are identical.
func sameSchedule(got, want *BlockSched) string {
	switch {
	case !slices.Equal(got.CycleOf, want.CycleOf):
		return "CycleOf differs"
	case got.Len != want.Len:
		return "Len differs"
	case got.SteadyLen != want.SteadyLen:
		return "SteadyLen differs"
	case got.Bundles != want.Bundles:
		return "Bundles differs"
	}
	return ""
}

// randomBlock builds a block of n instructions over a few registers and
// three arrays, with affine tags that are sometimes disjoint, sometimes
// equal and sometimes unknown, ending in a branch.
func randomBlock(rng *rand.Rand, n int) *ir.Block {
	const regs = 12
	reg := func() ir.Val { return ir.R(rng.Intn(regs)) }
	tag := func() ir.AffineTag {
		if rng.Intn(5) == 0 {
			return ir.AffineTag{}
		}
		return ir.AffineTag{Valid: true, LoopID: 1, Dims: []dep.Affine{
			{Coeff: int64(1 + rng.Intn(2)), Const: int64(rng.Intn(5) - 2), OK: true}}}
	}
	arr := func() string { return []string{"A", "B", "C"}[rng.Intn(3)] }
	typ := func() source.Type { return []source.Type{source.TInt, source.TFloat}[rng.Intn(2)] }
	b := &ir.Block{}
	for len(b.Instrs) < n-1 {
		var in *ir.Instr
		switch k := rng.Intn(10); {
		case k < 3:
			in = &ir.Instr{Op: ir.Load, Type: typ(), Dst: rng.Intn(regs), Args: []ir.Val{reg()}, Arr: arr(), Tag: tag()}
		case k < 5:
			in = &ir.Instr{Op: ir.Store, Type: typ(), Dst: -1, Args: []ir.Val{reg(), reg()}, Arr: arr(), Tag: tag()}
		case k < 7:
			in = &ir.Instr{Op: ir.Add, Type: typ(), Dst: rng.Intn(regs), Args: []ir.Val{reg(), reg()}}
		case k < 8:
			in = &ir.Instr{Op: ir.Mul, Type: typ(), Dst: rng.Intn(regs), Args: []ir.Val{reg(), ir.ImmI(3)}}
		case k < 9:
			in = &ir.Instr{Op: ir.Div, Type: typ(), Dst: rng.Intn(regs), Args: []ir.Val{reg(), reg()}}
		default:
			in = &ir.Instr{Op: ir.Mov, Type: typ(), Dst: rng.Intn(regs), Args: []ir.Val{reg()}}
		}
		b.Instrs = append(b.Instrs, in)
	}
	switch rng.Intn(3) {
	case 0:
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.Br, Dst: -1})
	case 1:
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.BrTrue, Dst: -1, Args: []ir.Val{reg()}})
	default:
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.Halt, Dst: -1})
	}
	return b
}

// The reduced DAG must schedule every random block exactly like the
// all-pairs DAG, on every machine, with tags on and off and at every
// window.
func TestListScheduleMatchesReferenceOnRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		b := randomBlock(rng, 1+rng.Intn(60))
		for _, d := range allMachines() {
			for _, tags := range []bool{false, true} {
				for _, window := range []int{0, 2, 8} {
					got := ListSchedule(b, d, tags, window)
					want := refListSchedule(b, d, tags, window)
					if diff := sameSchedule(got, want); diff != "" {
						t.Fatalf("block %d on %s, tags %v, window %d: %s\n got %+v\nwant %+v",
							k, d.Name, tags, window, diff, got, want)
					}
					if c := ListCycles(b, d, tags, window); !slices.Equal(c, want.CycleOf) {
						t.Fatalf("block %d on %s, tags %v, window %d: ListCycles differs", k, d.Name, tags, window)
					}
				}
			}
		}
	}
}

// With tags off every access to one array conflicts with every other
// but a load pair, so the all-pairs DAG of a block of n accesses has
// Θ(n²) edges. The reduced DAG keeps O(1) per instruction.
func TestBlockDepsLinearOnOneArray(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(2))
	b := &ir.Block{}
	for i := 0; len(b.Instrs) < n; i++ {
		if rng.Intn(3) == 0 {
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.Store, Type: source.TFloat, Dst: -1,
				Args: []ir.Val{ir.R(0), ir.R(1 + rng.Intn(i+1))}, Arr: "A"})
		} else {
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.Load, Type: source.TFloat, Dst: 2 + i,
				Args: []ir.Val{ir.R(0)}, Arr: "A"})
		}
	}
	d := machine.IA64Like()
	sc := getScratch(b.Instrs)
	edges := len(sc.blockDeps(b.Instrs, d, false))
	sc.release(b.Instrs)
	if edges > 4*n {
		t.Errorf("%d accesses to one array emit %d edges, want at most %d", n, edges, 4*n)
	}
	if all := len(refBlockDeps(b.Instrs, d, false)); all < 50*n {
		t.Errorf("the all-pairs DAG has only %d edges: the block does not exercise the reduction", all)
	}
	got, want := ListSchedule(b, d, false, 0), refListSchedule(b, d, false, 0)
	if diff := sameSchedule(got, want); diff != "" {
		t.Errorf("one-array block: %s", diff)
	}
}
