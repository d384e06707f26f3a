package sim

import (
	"sort"

	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/prof"
)

// profState is the per-Run cycle-attribution accumulator. It lives in
// the pooled run state and is readied at Run start (only for a profiled
// predecode), written through dense index arithmetic on the hot path —
// no maps, no allocation — and folded into a prof.Profile at Run exit.
//
// Two granularities mirror the two issue policies: dynamic (in-order)
// machines charge the slot of the instruction that stalled or issued,
// static (VLIW) machines charge whole blocks on entry exactly as the
// timing model does, and fold apportions each block's charge across its
// slots by instruction count. A slot is one (block, source line) pair.
// The state splits in two so batched simulation can share the
// predecode across runs: profTables is the immutable (block, line) slot
// interning built once per predecode, profState the per-run counter set
// laid over it.
type profState struct {
	*profTables
	slotCounts  []int64 // slot*NumCauses+cause: dynamic-issue charges
	blockCounts []int64 // block*NumCauses+cause: static charges

	// missReady flags registers whose pending value was delayed by an
	// L1 miss, so the stall classifier can split hazard from miss.
	missReady []bool
}

// profTables is the immutable-after-predecode half of the profiler: the
// slot interning, apportion weights and schedule issue counts. One
// profTables is shared by every run of a predecoded artifact.
type profTables struct {
	slotBlock  []int32 // slot -> block ID
	slotLine   []int32 // slot -> source line (0 = generated)
	slotWeight []int64 // slot -> instruction count (apportion weights)
	blockSlots [][]int32
	schedIssue []int32 // block -> non-empty issue groups of its schedule
	penalty    int64   // the machine's miss penalty
}

func newProfTables(f *ir.Func, d *machine.Desc) *profTables {
	return &profTables{
		blockSlots: make([][]int32, len(f.Blocks)),
		schedIssue: make([]int32, len(f.Blocks)),
		penalty:    int64(d.Cache.MissPenalty),
	}
}

// slotFor interns the (block, line) slot during predecode. Blocks hold
// a handful of distinct lines, so a linear scan beats a map.
func (t *profTables) slotFor(block int, line int32) int32 {
	for _, s := range t.blockSlots[block] {
		if t.slotLine[s] == line {
			t.slotWeight[s]++
			return s
		}
	}
	s := int32(len(t.slotLine))
	t.slotBlock = append(t.slotBlock, int32(block))
	t.slotLine = append(t.slotLine, line)
	t.slotWeight = append(t.slotWeight, 1)
	t.blockSlots[block] = append(t.blockSlots[block], s)
	return s
}

// reset readies p for a run over t's slots and f's blocks and
// registers: every counter zeroed, storage reused across runs.
func (p *profState) reset(t *profTables, f *ir.Func) {
	p.profTables = t
	p.slotCounts = zeroed(p.slotCounts, len(t.slotLine)*prof.NumCauses)
	p.blockCounts = zeroed(p.blockCounts, len(f.Blocks)*prof.NumCauses)
	p.missReady = zeroed(p.missReady, f.NumRegs)
}

// charge attributes n cycles to an instruction slot (dynamic issue).
func (p *profState) charge(slot int32, c prof.Cause, n int64) {
	p.slotCounts[int(slot)*prof.NumCauses+int(c)] += n
}

// chargeBlock attributes n cycles to a block (static timing).
func (p *profState) chargeBlock(block int, c prof.Cause, n int64) {
	p.blockCounts[block*prof.NumCauses+int(c)] += n
}

// chargeStatic classifies a static block-entry charge exactly as
// execBlock computed it: issue cycles up to the schedule's bundle
// count, pipeline fill for a modulo-scheduled entry, and the rest as
// hazard stalls the static schedule exposes.
func (p *profState) chargeStatic(b *ir.Block, bt *BlockTiming, repeat bool, charged int64) {
	if charged <= 0 {
		return
	}
	switch {
	case bt.IMS != nil && bt.IMS.OK:
		issue := min(int64(bt.IMS.II), charged)
		p.chargeBlock(b.ID, prof.CauseIssue, issue)
		if !repeat && charged > issue {
			p.chargeBlock(b.ID, prof.CauseFill, charged-issue)
		} else if charged > issue {
			p.chargeBlock(b.ID, prof.CauseHazard, charged-issue)
		}
	case bt.Sched != nil:
		issue := min(int64(p.schedIssue[b.ID]), charged)
		p.chargeBlock(b.ID, prof.CauseIssue, issue)
		if charged > issue {
			p.chargeBlock(b.ID, prof.CauseHazard, charged-issue)
		}
	default:
		p.chargeBlock(b.ID, prof.CauseIssue, charged)
	}
}

// fold converts the raw accumulators into a Profile: static block
// charges are apportioned across the block's slots by instruction
// count (exactly — largest-remainder rounding), slots outside loop
// bodies whose source line also appears inside a loop body are
// reclassified as prologue/epilogue scaffolding (SLMS fill/drain code
// is a copy of body statements, so it keeps their lines), and slots
// aggregate into per-line and per-block views.
func (p *profState) fold(f *ir.Func, m *Metrics, d *machine.Desc) *prof.Profile {
	nSlots := len(p.slotLine)
	counts := make([]prof.Counts, nSlots)
	for s := 0; s < nSlots; s++ {
		for c := 0; c < prof.NumCauses; c++ {
			counts[s][c] = p.slotCounts[s*prof.NumCauses+c]
		}
	}
	// Apportion static block charges across the block's slots.
	for blk := range f.Blocks {
		slots := p.blockSlots[blk]
		for c := 0; c < prof.NumCauses; c++ {
			total := p.blockCounts[blk*prof.NumCauses+c]
			if total == 0 {
				continue
			}
			if len(slots) == 0 {
				// Cannot happen for charged blocks (every charge path
				// runs instructions), but never drop cycles.
				continue
			}
			shares := apportion(total, slots, p.slotWeight)
			for i, s := range slots {
				counts[s][c] += shares[i]
			}
		}
	}

	// Prologue/epilogue reclassification (see doc comment). Misses and
	// branch redirects keep their own causes even inside scaffolding.
	bodyLines := map[int32]bool{}
	for _, b := range f.Blocks {
		if !b.IsLoopBody {
			continue
		}
		for _, s := range p.blockSlots[b.ID] {
			if p.slotLine[s] != 0 {
				bodyLines[p.slotLine[s]] = true
			}
		}
	}
	for s := 0; s < nSlots; s++ {
		line := p.slotLine[s]
		if line == 0 || !bodyLines[line] || f.Blocks[p.slotBlock[s]].IsLoopBody {
			continue
		}
		moved := counts[s][prof.CauseIssue] + counts[s][prof.CauseHazard] + counts[s][prof.CauseFill]
		counts[s][prof.CauseIssue] = 0
		counts[s][prof.CauseHazard] = 0
		counts[s][prof.CauseFill] = 0
		counts[s][prof.CauseProEpi] += moved
	}

	pr := &prof.Profile{
		Machine: d.Name,
		Cycles:  m.Cycles,
		Instrs:  m.Instrs,
	}
	// Per-block view.
	for blk, b := range f.Blocks {
		slots := p.blockSlots[blk]
		if len(slots) == 0 {
			continue
		}
		bs := prof.BlockStat{Block: b.ID, Line: int(p.slotLine[slots[0]]), Execs: m.ExecCounts[b.ID]}
		for _, s := range slots {
			bs.Counts.Add(&counts[s])
		}
		if bs.Counts.Total() != 0 || bs.Execs != 0 {
			pr.Blocks = append(pr.Blocks, bs)
		}
	}
	// Per-line view.
	byLine := map[int32]*prof.Counts{}
	for s := 0; s < nSlots; s++ {
		if counts[s].Total() == 0 {
			continue
		}
		lc := byLine[p.slotLine[s]]
		if lc == nil {
			lc = new(prof.Counts)
			byLine[p.slotLine[s]] = lc
		}
		lc.Add(&counts[s])
	}
	lines := make([]int, 0, len(byLine))
	for l := range byLine {
		lines = append(lines, int(l))
	}
	sort.Ints(lines)
	for _, l := range lines {
		pr.Lines = append(pr.Lines, prof.LineStat{Line: l, Counts: *byLine[int32(l)]})
	}
	return pr
}

// apportion splits total across slots proportionally to their weights,
// exactly: shares sum to total, remainders go to the heaviest slots
// first (ties by slot order), so the split is deterministic.
func apportion(total int64, slots []int32, weight []int64) []int64 {
	var wsum int64
	for _, s := range slots {
		wsum += weight[s]
	}
	shares := make([]int64, len(slots))
	if wsum == 0 {
		shares[0] = total
		return shares
	}
	var given int64
	for i, s := range slots {
		shares[i] = total * weight[s] / wsum
		given += shares[i]
	}
	if rest := total - given; rest > 0 {
		// Order slots by remainder, largest first; stable on index.
		idx := make([]int, len(slots))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ra := total * weight[slots[idx[a]]] % wsum
			rb := total * weight[slots[idx[b]]] % wsum
			return ra > rb
		})
		for i := int64(0); i < rest; i++ {
			shares[idx[int(i)%len(idx)]]++
		}
	}
	return shares
}
