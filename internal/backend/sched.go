package backend

import (
	"slices"
	"sync"

	"slms/internal/dep"
	"slms/internal/ir"
	"slms/internal/machine"
)

// BlockSched is the static timing of one basic block on a Static-policy
// (VLIW) machine.
type BlockSched struct {
	// CycleOf is the issue cycle of each instruction.
	CycleOf []int
	// Len is the cycles one pass through the block takes (fill).
	Len int
	// SteadyLen is the per-iteration cost when the block is a loop body
	// executed back to back: Len plus any loop-carried stall the static
	// schedule exposes.
	SteadyLen int
	// Bundles is the number of non-empty issue groups (the "bundle count"
	// metric of the paper's IA-64 analysis).
	Bundles int
}

// depEdge is a scheduling dependence within a block: to may issue no
// earlier than lat cycles after from.
type depEdge struct {
	from, to, lat int32
}

// scratch is the block schedulers' working memory. Virtual registers are
// numbered function-wide, so a two-instruction block of a large program
// can mention register 1,400; per-register state is therefore indexed by
// register, grown on demand and kept clean between blocks by resetting
// only the registers a block mentions. A block then costs O(its
// instructions + edges), not O(its highest register). Buffers are pooled
// process-wide, so after warm-up a block allocates nothing here: the
// buffers grow to the largest block served.
type scratch struct {
	// Per register. Outside a call every entry holds the value in
	// parentheses: getScratch grows the arrays with it, and release
	// restores it at the registers the block mentions.
	lastDef  []int // blockDeps: the defining instruction (-1)
	useHead  []int // blockDeps: newest use node since that def (-1)
	regReady []int // SequentialSchedule: cycle the value is ready (0)
	defCycle []int // carriedStall: issue cycle of the last def (-1)
	defLat   []int // carriedStall: that def's latency (0)

	// The uses since each register's last def, as one flat linked list:
	// node k is a use by instruction useInstr[k], followed by useNext[k].
	useInstr, useNext []int
	uses              []int // an instruction's registers read
	edges             []depEdge
	hasSucc           []bool // blockDeps: the instruction has an out-edge

	// blockDeps, per array the block accesses (numbered by arrayOf,
	// which is empty outside a call): the last store (-1), and the head
	// (-1) of a list over memInstr/memNext holding, newest first, the
	// loads since that store (tags off) or every access so far (tags on).
	arrayOf            map[string]int
	lastStore, memHead []int
	memInstr, memNext  []int

	// ListSchedule, per instruction. succs holds the edges bucketed by
	// source: instruction i's are succs[succOff[i]:succOff[i+1]].
	succOff, cursor          []int
	succs                    []depEdge
	height, readyAt, pending []int
	scheduled                []bool
	ready, rest              []int
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{arrayOf: map[string]int{}}
}}

// getScratch takes a scratch from the pool with its per-register arrays
// covering every register ins mentions.
func getScratch(ins []*ir.Instr) *scratch {
	s := scratchPool.Get().(*scratch)
	if n := maxRegOf(ins) + 1; len(s.lastDef) < n {
		s.lastDef = fill(s.lastDef, n, -1)
		s.useHead = fill(s.useHead, n, -1)
		s.regReady = fill(s.regReady, n, 0)
		s.defCycle = fill(s.defCycle, n, -1)
		s.defLat = fill(s.defLat, n, 0)
	}
	return s
}

// fill extends buf to n entries, each new one v, growing it at most
// once.
func fill(buf []int, n, v int) []int {
	buf = slices.Grow(buf, n-len(buf))
	for len(buf) < n {
		buf = append(buf, v)
	}
	return buf
}

// release resets the per-register state of every register ins mentions
// and returns s to the pool.
func (s *scratch) release(ins []*ir.Instr) {
	reset := func(r int) {
		s.lastDef[r], s.useHead[r], s.regReady[r], s.defCycle[r], s.defLat[r] = -1, -1, 0, -1, 0
	}
	for _, in := range ins {
		if in.Dst >= 0 {
			reset(in.Dst)
		}
		for _, a := range in.Args {
			if a.Kind == ir.KReg {
				reset(a.Reg)
			}
		}
	}
	scratchPool.Put(s)
}

// zeroed returns buf resized to n zero entries, reusing its storage.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// blockDeps builds the intra-block scheduling DAG into s.edges, which it
// returns; the edges stay valid until s is next used. useTags enables
// affine memory disambiguation (the strong-compiler front end forwards
// subscript analysis to the back end); without it any two accesses to
// the same array conflict.
//
// The DAG is transitively reduced where the all-pairs one is quadratic.
// Every ordering constraint u→w it leaves out is implied by a kept path
// u→…→w whose latencies sum to at least lat(u, w), so every height and
// ready time list computes is the all-pairs DAG's:
//   - With tags off, an access needs an edge only from its array's last
//     store, and a store also from the loads since that store: an older
//     access reaches it through that store. The edges are then linear
//     in the block's instructions.
//   - With tags on, the conflict test stays pairwise but scans only the
//     same array's accesses, newest first, and stops at the first
//     conflicting store without a tag (a spill store, say): every older
//     access conflicts with that store and reaches the access through it.
//     Tagged accesses to one array are still tested, and may still
//     conflict, pairwise.
//   - The terminating branch needs an edge only from instructions that
//     have no successor yet; any other reaches it through one that has
//     none.
func (s *scratch) blockDeps(ins []*ir.Instr, d *machine.Desc, useTags bool) []depEdge {
	// Sized once for the block: an instruction reads a few registers,
	// makes at most one access and, in the reduced DAG, has a few edges.
	n := len(ins)
	edges := slices.Grow(s.edges[:0], 3*n)
	hasSucc := zeroed(s.hasSucc, n)
	add := func(from, to, lat int) {
		edges = append(edges, depEdge{int32(from), int32(to), int32(lat)})
		hasSucc[from] = true
	}
	useInstr, useNext := slices.Grow(s.useInstr[:0], 2*n), slices.Grow(s.useNext[:0], 2*n)
	lastStore, memHead := s.lastStore[:0], s.memHead[:0]
	memInstr, memNext := slices.Grow(s.memInstr[:0], n), slices.Grow(s.memNext[:0], n)
	for j, in := range ins {
		// Register dependences.
		s.uses = in.AppendUses(s.uses[:0])
		for _, r := range s.uses {
			if i := s.lastDef[r]; i >= 0 {
				add(i, j, d.Latency(ins[i])) // RAW
			}
			useInstr = append(useInstr, j)
			useNext = append(useNext, s.useHead[r])
			s.useHead[r] = len(useInstr) - 1
		}
		if r := in.Dst; r >= 0 {
			if i := s.lastDef[r]; i >= 0 {
				add(i, j, 1) // WAW
			}
			for k := s.useHead[r]; k >= 0; k = useNext[k] {
				if u := useInstr[k]; u != j {
					add(u, j, 0) // WAR
				}
			}
			s.lastDef[r] = j
			s.useHead[r] = -1
		}
		// Memory dependences: store→load/store edges carry the store
		// latency, load→store edges none.
		if in.Op.IsMem() {
			a, ok := s.arrayOf[in.Arr]
			if !ok {
				a = len(lastStore)
				s.arrayOf[in.Arr] = a
				lastStore = append(lastStore, -1)
				memHead = append(memHead, -1)
			}
			isStore := in.Op == ir.Store
			switch {
			case useTags:
				for k := memHead[a]; k >= 0; k = memNext[k] {
					i := memInstr[k]
					p := ins[i]
					if p.Op == ir.Load && !isStore || !memConflict(p, in, true) {
						continue
					}
					lat := 0
					if p.Op == ir.Store {
						lat = d.Lat.Store
					}
					add(i, j, lat)
					if p.Op == ir.Store && !p.Tag.Valid {
						break // every earlier access reaches j through p
					}
				}
			case isStore:
				if i := lastStore[a]; i >= 0 {
					add(i, j, d.Lat.Store)
				}
				for k := memHead[a]; k >= 0; k = memNext[k] {
					add(memInstr[k], j, 0)
				}
				lastStore[a], memHead[a] = j, -1
			default:
				if i := lastStore[a]; i >= 0 {
					add(i, j, d.Lat.Store)
				}
			}
			if useTags || !isStore {
				memInstr = append(memInstr, j)
				memNext = append(memNext, memHead[a])
				memHead[a] = len(memInstr) - 1
			}
		}
		// Everything stays before the terminating branch.
		if in.Op.IsBranch() {
			for i := 0; i < j; i++ {
				if !hasSucc[i] {
					add(i, j, 0)
				}
			}
		}
	}
	clear(s.arrayOf)
	s.edges, s.hasSucc, s.useInstr, s.useNext = edges, hasSucc, useInstr, useNext
	s.lastStore, s.memHead, s.memInstr, s.memNext = lastStore, memHead, memInstr, memNext
	return edges
}

// memConflict decides whether two memory ops to possibly-equal addresses
// must stay ordered within one loop iteration.
func memConflict(a, b *ir.Instr, useTags bool) bool {
	if a.Arr != b.Arr {
		return false // distinct arrays never alias in mini-C
	}
	if !useTags {
		return true
	}
	res, dist := ir.TagDistance(a.Tag, b.Tag)
	switch res {
	case dep.DistNone:
		return false
	case dep.DistExact:
		// Within a single iteration only distance 0 collides.
		return dist == 0
	default:
		return true
	}
}

// ListSchedule performs resource-constrained list scheduling of one
// block (critical-path priority), returning the static timing.
//
// window bounds the scheduler's lookahead in program order (0 =
// unbounded): an instruction can only be picked while fewer than
// `window` earlier instructions remain unscheduled. Small windows model
// the limited scheduling regions of weak compilers — the reason SLMS
// helps them is precisely that it moves parallel work syntactically
// close together.
func ListSchedule(b *ir.Block, d *machine.Desc, useTags bool, window int) *BlockSched {
	ins := b.Instrs
	n := len(ins)
	s := &BlockSched{CycleOf: make([]int, n)}
	if n == 0 {
		s.Len, s.SteadyLen = 1, 1
		return s
	}
	sc := getScratch(ins)
	s.Bundles = sc.list(ins, d, sc.blockDeps(ins, d, useTags), window, s.CycleOf)
	s.Len = slices.Max(s.CycleOf) + d.Lat.Branch
	s.SteadyLen = s.Len + sc.carriedStall(ins, s.CycleOf, s.Len, d)
	sc.release(ins)
	return s
}

// ListCycles returns the issue cycle of each instruction under
// ListSchedule, without the block's timing: for a compiler that reorders
// the block by these cycles and then times the new order.
func ListCycles(b *ir.Block, d *machine.Desc, useTags bool, window int) []int {
	cycleOf := make([]int, len(b.Instrs))
	if len(b.Instrs) == 0 {
		return cycleOf
	}
	sc := getScratch(b.Instrs)
	sc.list(b.Instrs, d, sc.blockDeps(b.Instrs, d, useTags), window, cycleOf)
	sc.release(b.Instrs)
	return cycleOf
}

// list is ListSchedule's scheduler over the block's dependence edges:
// it fills cycleOf and returns the number of non-empty issue groups.
func (s *scratch) list(ins []*ir.Instr, d *machine.Desc, edges []depEdge, window int, cycleOf []int) (bundles int) {
	n := len(ins)
	// Bucket edges by source (a counting sort).
	off := zeroed(s.succOff, n+1)
	pending := zeroed(s.pending, n)
	for _, e := range edges {
		off[e.from+1]++
		pending[e.to]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	cursor := append(s.cursor[:0], off[:n]...)
	succs := zeroed(s.succs, len(edges))
	for _, e := range edges {
		succs[cursor[e.from]] = e
		cursor[e.from]++
	}
	// Heights: longest latency path to any sink.
	height := zeroed(s.height, n)
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, e := range succs[off[i]:off[i+1]] {
			h = max(h, height[e.to]+int(e.lat))
		}
		height[i] = h
	}
	readyAt := zeroed(s.readyAt, n)
	scheduled := zeroed(s.scheduled, n)
	ready, rest := s.ready[:0], s.rest[:0]
	for i := 0; i < n; i++ {
		if pending[i] == 0 {
			ready = append(ready, i)
		}
	}
	first := 0 // the earliest unscheduled instruction
	done := 0
	for cycle := 0; done < n; cycle++ {
		// The weak-compiler window: only instructions close (in program
		// order) to the earliest unscheduled one are candidates.
		horizon := n
		if window > 0 {
			for first < n && scheduled[first] {
				first++
			}
			horizon = first + window
		}
		// Candidates ready this cycle, by height then source order.
		// Insertion sort: the list is small and mostly ordered from the
		// previous cycle, and (height desc, index asc) is a total order,
		// so this yields exactly the comparison sort's result whatever
		// order the edges put the list in.
		for a := 1; a < len(ready); a++ {
			x := ready[a]
			b := a - 1
			for b >= 0 && (height[ready[b]] < height[x] ||
				(height[ready[b]] == height[x] && ready[b] > x)) {
				ready[b+1] = ready[b]
				b--
			}
			ready[b+1] = x
		}
		var used [4]int
		issued := 0
		rest = rest[:0]
		for _, i := range ready {
			fu := machine.UnitOf(ins[i])
			if i >= horizon || readyAt[i] > cycle || issued >= d.IssueWidth || used[fu] >= d.Units[fu] {
				rest = append(rest, i)
				continue
			}
			cycleOf[i] = cycle
			scheduled[i] = true
			used[fu]++
			issued++
			done++
			for _, e := range succs[off[i]:off[i+1]] {
				to := int(e.to)
				pending[to]--
				readyAt[to] = max(readyAt[to], cycle+int(e.lat))
				if pending[to] == 0 {
					rest = append(rest, to)
				}
			}
		}
		ready, rest = rest, ready
		if issued > 0 {
			bundles++
		}
	}
	s.succOff, s.cursor, s.succs, s.pending = off, cursor, succs, pending
	s.height, s.readyAt, s.scheduled, s.ready, s.rest = height, readyAt, scheduled, ready, rest
	return bundles
}

// SequentialSchedule models a compiler that performs no reordering (the
// no-O3 configuration): instructions fill issue slots strictly in
// program order, stalling on hazards.
func SequentialSchedule(b *ir.Block, d *machine.Desc) *BlockSched {
	ins := b.Instrs
	n := len(ins)
	s := &BlockSched{CycleOf: make([]int, n)}
	if n == 0 {
		s.Len, s.SteadyLen = 1, 1
		return s
	}
	sc := getScratch(ins)
	regReady := sc.regReady
	memReady := 0
	cycle, issued := 0, 0
	var used [4]int
	for i, in := range ins {
		earliest := cycle
		sc.uses = in.AppendUses(sc.uses[:0])
		for _, r := range sc.uses {
			if t := regReady[r]; t > earliest {
				earliest = t
			}
		}
		if in.Op.IsMem() && memReady > earliest {
			earliest = memReady
		}
		fu := machine.UnitOf(in)
		for earliest > cycle || issued >= d.IssueWidth || used[fu] >= d.Units[fu] {
			cycle++
			issued = 0
			used = [4]int{}
		}
		s.CycleOf[i] = cycle
		issued++
		used[fu]++
		if issued == 1 {
			s.Bundles++
		}
		if in.Dst >= 0 {
			regReady[in.Dst] = cycle + d.Latency(in)
		}
		if in.Op == ir.Store {
			memReady = cycle + d.Lat.Store
		}
	}
	s.Len = s.CycleOf[n-1] + d.Lat.Branch
	s.SteadyLen = s.Len + sc.carriedStall(ins, s.CycleOf, s.Len, d)
	sc.release(ins)
	return s
}

// carriedStall computes the extra stall a back-to-back re-execution of
// the block suffers from loop-carried register dependences: a value
// produced late in iteration i and consumed early in iteration i+1.
func (s *scratch) carriedStall(ins []*ir.Instr, cycleOf []int, length int, d *machine.Desc) int {
	for i, in := range ins {
		if r := in.Dst; r >= 0 && cycleOf[i] >= s.defCycle[r] {
			s.defCycle[r] = cycleOf[i]
			s.defLat[r] = d.Latency(in)
		}
	}
	stall := 0
	for i, in := range ins {
		s.uses = in.AppendUses(s.uses[:0])
		for _, r := range s.uses {
			if s.defCycle[r] < 0 {
				continue // no def in the block
			}
			// Next-iteration use at length+cycleOf[i] needs def+lat.
			if st := s.defCycle[r] + s.defLat[r] - (length + cycleOf[i]); st > stall {
				stall = st
			}
		}
	}
	return stall
}

// maxRegOf returns the highest register number a block mentions (-1 if
// none).
func maxRegOf(ins []*ir.Instr) int {
	maxReg := -1
	for _, in := range ins {
		if in.Dst > maxReg {
			maxReg = in.Dst
		}
		for _, a := range in.Args {
			if a.Kind == ir.KReg && a.Reg > maxReg {
				maxReg = a.Reg
			}
		}
	}
	return maxReg
}
