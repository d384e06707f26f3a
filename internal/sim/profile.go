package sim

import (
	"cmp"
	"slices"

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

	// fold's scratch, reused across runs.
	counts []prof.Counts // per slot
	shares []int64       // apportion: per slot of a block
	order  []int         // apportion: slots by remainder
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

	// Set by finish, once every slot is interned.
	scaffold []bool  // slot -> prologue/epilogue: see fold
	byLine   []int32 // slots in ascending line order, stable on slot
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

// finish derives the per-slot views fold reads from the interned slots
// of f: which slots are prologue/epilogue scaffolding, and the slots in
// line order.
func (t *profTables) finish(f *ir.Func) {
	// A slot outside loop bodies whose source line also appears inside
	// a loop body is scaffolding: SLMS fill/drain code is a copy of body
	// statements, so it keeps their lines.
	bodyLine := func(line int32) bool {
		for _, b := range f.Blocks {
			if b.IsLoopBody {
				for _, s := range t.blockSlots[b.ID] {
					if t.slotLine[s] == line {
						return true
					}
				}
			}
		}
		return false
	}
	n := len(t.slotLine)
	t.scaffold = make([]bool, n)
	t.byLine = make([]int32, n)
	for s := range n {
		line := t.slotLine[s]
		t.scaffold[s] = line != 0 && !f.Blocks[t.slotBlock[s]].IsLoopBody && bodyLine(line)
		t.byLine[s] = int32(s)
	}
	slices.SortStableFunc(t.byLine, func(a, b int32) int {
		return cmp.Compare(t.slotLine[a], t.slotLine[b])
	})
}

// reset readies p for a run over t's slots and f's blocks: every
// counter zeroed, storage reused across runs.
func (p *profState) reset(t *profTables, f *ir.Func) {
	p.profTables = t
	p.slotCounts = zeroed(p.slotCounts, len(t.slotLine)*prof.NumCauses)
	p.blockCounts = zeroed(p.blockCounts, len(f.Blocks)*prof.NumCauses)
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
func (p *profState) chargeStatic(id int, bt *BlockTiming, repeat bool, charged int64) {
	if charged <= 0 {
		return
	}
	switch {
	case bt.IMS != nil && bt.IMS.OK:
		issue := min(int64(bt.IMS.II), charged)
		p.chargeBlock(id, prof.CauseIssue, issue)
		if !repeat && charged > issue {
			p.chargeBlock(id, prof.CauseFill, charged-issue)
		} else if charged > issue {
			p.chargeBlock(id, prof.CauseHazard, charged-issue)
		}
	case bt.Sched != nil:
		issue := min(int64(p.schedIssue[id]), charged)
		p.chargeBlock(id, prof.CauseIssue, issue)
		if charged > issue {
			p.chargeBlock(id, prof.CauseHazard, charged-issue)
		}
	default:
		p.chargeBlock(id, prof.CauseIssue, charged)
	}
}

// fold converts the raw accumulators into a Profile: static block
// charges are apportioned across the block's slots by instruction
// count (exactly — largest-remainder rounding), scaffolding slots
// (see finish) are reclassified as prologue/epilogue, and slots
// aggregate into per-line and per-block views. It works in p's pooled
// scratch: only the returned Profile and its slices are allocated.
func (p *profState) fold(f *ir.Func, m *Metrics, d *machine.Desc) *prof.Profile {
	nSlots := len(p.slotLine)
	p.counts = zeroed(p.counts, nSlots)
	counts := p.counts
	for s := range counts {
		copy(counts[s][:], p.slotCounts[s*prof.NumCauses:])
	}
	// Apportion static block charges across the block's slots.
	for blk := range f.Blocks {
		slots := p.blockSlots[blk]
		if len(slots) == 0 {
			// Cannot be charged (every charge path runs instructions),
			// and nothing to apportion to.
			continue
		}
		for c := 0; c < prof.NumCauses; c++ {
			total := p.blockCounts[blk*prof.NumCauses+c]
			if total == 0 {
				continue
			}
			for i, share := range p.apportion(total, slots) {
				counts[slots[i]][c] += share
			}
		}
	}
	// Prologue/epilogue reclassification. Misses and branch redirects
	// keep their own causes even inside scaffolding.
	for s, scaffold := range p.scaffold {
		if !scaffold {
			continue
		}
		cs := &counts[s]
		moved := cs[prof.CauseIssue] + cs[prof.CauseHazard] + cs[prof.CauseFill]
		cs[prof.CauseIssue], cs[prof.CauseHazard], cs[prof.CauseFill] = 0, 0, 0
		cs[prof.CauseProEpi] += moved
	}

	pr := &prof.Profile{
		Machine: d.Name,
		Cycles:  m.Cycles,
		Instrs:  m.Instrs,
	}
	// Per-block view: a block with slots that ran or was charged.
	blockStat := func(blk int) (bs prof.BlockStat, ok bool) {
		slots := p.blockSlots[blk]
		if len(slots) == 0 {
			return bs, false
		}
		bs = prof.BlockStat{Block: blk, Line: int(p.slotLine[slots[0]]), Execs: m.ExecCounts[blk]}
		for _, s := range slots {
			bs.Counts.Add(&counts[s])
		}
		return bs, bs.Counts.Total() != 0 || bs.Execs != 0
	}
	nBlocks := 0
	for blk := range f.Blocks {
		if _, ok := blockStat(blk); ok {
			nBlocks++
		}
	}
	if nBlocks > 0 {
		pr.Blocks = make([]prof.BlockStat, 0, nBlocks)
		for blk := range f.Blocks {
			if bs, ok := blockStat(blk); ok {
				pr.Blocks = append(pr.Blocks, bs)
			}
		}
	}
	// Per-line view: the charged slots, summed by line in line order.
	nLines, last := 0, int32(-1)
	for _, s := range p.byLine {
		if counts[s].Total() != 0 && (nLines == 0 || p.slotLine[s] != last) {
			nLines++
			last = p.slotLine[s]
		}
	}
	if nLines > 0 {
		pr.Lines = make([]prof.LineStat, 0, nLines)
		for _, s := range p.byLine {
			if counts[s].Total() == 0 {
				continue
			}
			line := int(p.slotLine[s])
			if n := len(pr.Lines); n == 0 || pr.Lines[n-1].Line != line {
				pr.Lines = append(pr.Lines, prof.LineStat{Line: line})
			}
			pr.Lines[len(pr.Lines)-1].Counts.Add(&counts[s])
		}
	}
	return pr
}

// apportion splits total across slots proportionally to their weights,
// exactly: shares sum to total, remainders go to the heaviest slots
// first (ties by slot order), so the split is deterministic. The
// shares live in p's scratch until the next call.
func (p *profState) apportion(total int64, slots []int32) []int64 {
	var wsum int64
	for _, s := range slots {
		wsum += p.slotWeight[s]
	}
	p.shares = zeroed(p.shares, len(slots))
	shares := p.shares
	if wsum == 0 {
		shares[0] = total
		return shares
	}
	var given int64
	for i, s := range slots {
		shares[i] = total * p.slotWeight[s] / wsum
		given += shares[i]
	}
	if rest := total - given; rest > 0 {
		// Order slots by remainder, largest first; stable on index.
		rem := func(i int) int64 { return total * p.slotWeight[slots[i]] % wsum }
		p.order = p.order[:0]
		for i := range slots {
			p.order = append(p.order, i)
		}
		order := p.order
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && rem(order[j]) > rem(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for i := int64(0); i < rest; i++ {
			shares[order[int(i)%len(order)]]++
		}
	}
	return shares
}
