package backend

import (
	"maps"
	"sort"

	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/source"
)

// SpillArray is the reserved array name used for spill slots; the
// simulator treats it like any other array, so spill traffic goes
// through the cache model.
const SpillArray = "__spill"

// AllocResult reports the effect of register allocation.
type AllocResult struct {
	SpilledRegs int
	SpillLoads  int
	SpillStores int
	// MaxLiveInt/Float are the pre-allocation pressure peaks.
	MaxLiveInt   int
	MaxLiveFloat int
}

// Liveness is the machine-independent input of register allocation:
// each register class's live intervals in start order and its pressure
// peak. It depends only on the lowered function, so a function compiled
// for several machines needs it once.
type Liveness struct {
	classes [2]classLiveness // integer, float
}

// classLiveness is one register class's share of a Liveness.
type classLiveness struct {
	ivs     []interval // sorted by start
	maxLive int        // true pressure (no eviction), for reporting
}

// NewLiveness computes the liveness of f, which it only reads.
func NewLiveness(f *ir.Func) *Liveness {
	lv := &Liveness{}
	for _, iv := range liveIntervals(f) {
		c := &lv.classes[0]
		if f.RegTypes[iv.reg] == source.TFloat {
			c = &lv.classes[1]
		}
		c.ivs = append(c.ivs, iv)
	}
	for i := range lv.classes {
		c := &lv.classes[i]
		sort.Slice(c.ivs, func(a, b int) bool { return c.ivs[a].start < c.ivs[b].start })
		var active []interval
		for _, iv := range c.ivs {
			keep := active[:0]
			for _, a := range active {
				if a.end >= iv.start {
					keep = append(keep, a)
				}
			}
			active = append(keep, iv)
			c.maxLive = max(c.maxLive, len(active))
		}
	}
	return lv
}

// Allocate performs linear-scan register allocation for the machine's
// register-file sizes and rewrites the function with spill code for the
// intervals that do not fit. Virtual register names are kept (the
// simulator has no physical file); what matters for timing and energy is
// the inserted spill traffic. It returns statistics about the spills.
func Allocate(f *ir.Func, d *machine.Desc) *AllocResult {
	return AllocateWith(f, NewLiveness(f), d)
}

// AllocateWith is Allocate given the liveness of f: it runs only the
// machine's linear scan and the spill rewrite. It writes f's block
// headers, register tables and array map but never an instruction or
// operand slice: an instruction whose operands it rewrites is copied
// first, so f may share its instructions with other functions.
func AllocateWith(f *ir.Func, lv *Liveness, d *machine.Desc) *AllocResult {
	res := &AllocResult{
		MaxLiveInt:   lv.classes[0].maxLive,
		MaxLiveFloat: lv.classes[1].maxLive,
	}
	// Linear scan per class.
	spilled := map[int]bool{}
	for c, cl := range lv.classes {
		limit := d.IntRegs
		if c == 1 {
			limit = d.FPRegs
		}
		// Reserve two scratch registers per class for spill reloads.
		limit -= 2
		if limit < 1 {
			limit = 1
		}
		var active []interval
		for _, iv := range cl.ivs {
			keep := active[:0]
			for _, a := range active {
				if a.end >= iv.start {
					keep = append(keep, a)
				}
			}
			active = append(keep, iv)
			if len(active) > limit {
				// Spill the interval ending last. Scalar home registers can
				// be spilled like any other value: definitions keep writing
				// the home register (and additionally store to the slot), so
				// the register always holds the latest value at Halt.
				worst := 0
				for k := 1; k < len(active); k++ {
					if active[k].end > active[worst].end {
						worst = k
					}
				}
				spilled[active[worst].reg] = true
				active = append(active[:worst], active[worst+1:]...)
			}
		}
	}
	if len(spilled) == 0 {
		return res
	}
	res.SpilledRegs = len(spilled)

	// Assign spill slots in register order: slot numbers decide spill-array
	// addresses, so the assignment must not depend on map iteration order
	// or the cache behaviour of spill traffic (and with it the simulated
	// cycle count) would differ from run to run.
	spilledRegs := make([]int, 0, len(spilled))
	for r := range spilled {
		spilledRegs = append(spilledRegs, r)
	}
	sort.Ints(spilledRegs)
	slot := map[int]int{}
	for _, r := range spilledRegs {
		slot[r] = len(slot)
	}
	if f.Arrays[SpillArray] == nil {
		arrays := make(map[string]*ir.ArrayInfo, len(f.Arrays)+1)
		maps.Copy(arrays, f.Arrays)
		arrays[SpillArray] = &ir.ArrayInfo{Type: source.TFloat, StaticLen: len(slot)}
		f.Arrays = arrays
	}

	// Rewrite: reload before uses, store after defs.
	for _, b := range f.Blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			reloads := map[int]int{}
			copied := false
			for ai, a := range in.Args {
				if a.Kind != ir.KReg || !spilled[a.Reg] {
					continue
				}
				tmp, ok := reloads[a.Reg]
				if !ok {
					tmp = f.NewReg(f.RegTypes[a.Reg])
					reloads[a.Reg] = tmp
					out = append(out, &ir.Instr{
						Op: ir.Load, Type: f.RegTypes[a.Reg], Dst: tmp,
						Args: []ir.Val{ir.ImmI(int64(slot[a.Reg]))},
						Arr:  SpillArray,
					})
					res.SpillLoads++
				}
				if !copied {
					cp := *in
					cp.Args = append([]ir.Val(nil), in.Args...)
					in, copied = &cp, true
				}
				in.Args[ai] = ir.R(tmp)
			}
			out = append(out, in)
			if in.Dst >= 0 && spilled[in.Dst] {
				out = append(out, &ir.Instr{
					Op: ir.Store, Type: f.RegTypes[in.Dst], Dst: -1,
					Args: []ir.Val{ir.ImmI(int64(slot[in.Dst])), ir.R(in.Dst)},
					Arr:  SpillArray,
				})
				res.SpillStores++
			}
		}
		// Keep the branch last: spill stores inserted after a trailing
		// branch must move before it.
		if n := len(out); n >= 2 && out[n-2].Op.IsBranch() && !out[n-1].Op.IsBranch() {
			out[n-2], out[n-1] = out[n-1], out[n-2]
		}
		b.Instrs = out
	}
	return res
}

// interval is a live range in global instruction positions.
type interval struct {
	reg        int
	start, end int
}

// liveIntervals computes conservative live intervals over the layout
// order using iterative liveness on the CFG.
func liveIntervals(f *ir.Func) []interval {
	n := len(f.Blocks)
	// Block position ranges.
	startPos := make([]int, n)
	endPos := make([]int, n)
	pos := 0
	for i, b := range f.Blocks {
		startPos[i] = pos
		pos += len(b.Instrs)
		endPos[i] = pos
	}
	// Register sets are dense bitsets over virtual register numbers: the
	// iterative dataflow re-unions them until fixpoint, and map-backed
	// sets dominated register-allocation time and allocation volume.
	nr := f.NumRegs
	words := (nr + 63) / 64
	bits := make([]uint64, 4*n*words) // use | def | liveIn | liveOut
	use := func(i int) []uint64 { return bits[(4*i+0)*words : (4*i+1)*words] }
	def := func(i int) []uint64 { return bits[(4*i+1)*words : (4*i+2)*words] }
	liveIn := func(i int) []uint64 { return bits[(4*i+2)*words : (4*i+3)*words] }
	liveOut := func(i int) []uint64 { return bits[(4*i+3)*words : (4*i+4)*words] }
	has := func(s []uint64, r int) bool { return s[r/64]&(1<<(r%64)) != 0 }
	set := func(s []uint64, r int) { s[r/64] |= 1 << (r % 64) }

	var useBuf []int
	for i, b := range f.Blocks {
		u, d := use(i), def(i)
		for _, in := range b.Instrs {
			useBuf = in.AppendUses(useBuf[:0])
			for _, r := range useBuf {
				if !has(d, r) {
					set(u, r)
				}
			}
			if in.Dst >= 0 {
				set(d, in.Dst)
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out, in, u, d := liveOut(i), liveIn(i), use(i), def(i)
			for w := 0; w < words; w++ {
				var o uint64
				for _, s := range b.Succs(n) {
					o |= liveIn(s)[w]
				}
				nin := (o &^ d[w]) | u[w]
				if o != out[w] || nin != in[w] {
					changed = true
				}
				out[w], in[w] = o, nin
			}
		}
	}
	// Build intervals.
	start := make([]int, nr)
	end := make([]int, nr)
	seen := make([]bool, nr)
	touch := func(r, p int) {
		if !seen[r] {
			seen[r] = true
			start[r], end[r] = p, p
			return
		}
		if p < start[r] {
			start[r] = p
		}
		if p > end[r] {
			end[r] = p
		}
	}
	for i, b := range f.Blocks {
		in, out := liveIn(i), liveOut(i)
		for r := 0; r < nr; r++ {
			if has(in, r) {
				touch(r, startPos[i])
			}
			if has(out, r) {
				touch(r, endPos[i])
			}
		}
		p := startPos[i]
		for _, instr := range b.Instrs {
			useBuf = instr.AppendUses(useBuf[:0])
			for _, r := range useBuf {
				touch(r, p)
			}
			if instr.Dst >= 0 {
				touch(instr.Dst, p)
			}
			p++
		}
	}
	ivs := make([]interval, 0, nr)
	for r := 0; r < nr; r++ {
		if seen[r] {
			ivs = append(ivs, interval{reg: r, start: start[r], end: end[r]})
		}
	}
	return ivs
}
