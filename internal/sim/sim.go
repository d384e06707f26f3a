// Package sim executes lowered programs (internal/ir) with cycle and
// energy accounting. It is an execution-driven timing simulator: values
// are computed exactly (and checked against the reference interpreter in
// tests), while cycles follow the machine's issue policy —
//
//   - Static (VLIW): each block charges its statically scheduled length;
//     back-to-back loop-body executions charge the steady-state length,
//     and modulo-scheduled loop bodies charge their II with the full
//     schedule length on entry (pipeline fill).
//   - InOrder (superscalar/scalar): issue is simulated dynamically,
//     multiple instructions per cycle up to the machine width and unit
//     limits, stalling on register hazards.
//
// Loads and stores go through a set-associative L1 model; misses add the
// machine's penalty and energy. Energy follows a Panalyzer-style
// per-event model plus static leakage per cycle.
//
// A program is simulated by predecoding it once for a machine and plan
// (Predecode) into a table of micro-ops and running the result
// (Predecoded.Run) as often as needed. Whether runs attribute cycles to
// causes (Metrics.Profile) is chosen at predecode and holds for every
// run of that predecode; no process-wide setting changes it.
//
// A run never mutates the program, the plan or the predecode: all
// per-execution state (register file, ready times, array bindings,
// base addresses, L1 tags) lives in the simulator, so one compiled
// artifact can be simulated from many goroutines concurrently. The
// per-run buffers come from one process-wide pool per machine cache,
// shared by every function simulated on machines with that L1, so
// simulation's working memory grows with the runs in flight, not with
// the artifacts compiled.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"slms/internal/backend"
	"slms/internal/ims"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/obs"
	"slms/internal/prof"
	"slms/internal/source"
)

// Simulation throughput counters in the metrics registry (handles are
// hoisted: updates are single atomics on the per-Run path).
// Blocks, stalls and misses are the events at which a run checks
// whether it profiles (see simulator.pr).
var (
	simRuns   = obs.CounterName("sim.runs")
	simCycles = obs.CounterName("sim.cycles")
	simInstrs = obs.CounterName("sim.instrs")
	simBlocks = obs.CounterName("sim.blocks")
	simStalls = obs.CounterName("sim.stalls")
	simMisses = obs.CounterName("sim.misses")
)

// BlockTiming is the compiled timing artifact for one block.
type BlockTiming struct {
	Sched *backend.BlockSched // static schedule (Static policy machines)
	IMS   *ims.Result         // valid modulo schedule for a loop body
	// LoopHead marks the condition block of an innermost counted loop;
	// the final compiler rotates such loops, so repeat executions coming
	// from the loop's own body are free (the body's schedule already
	// pays for one branch per iteration).
	LoopHead bool
	// BodyID is the loop body block for LoopHead blocks.
	BodyID int
}

// Plan carries per-block timing decisions, indexed by block ID.
type Plan struct {
	Blocks []BlockTiming
}

// Metrics is the simulation outcome.
type Metrics struct {
	Cycles      int64
	Energy      float64
	Instrs      int64
	Loads       int64
	Stores      int64
	CacheMiss   int64
	SpillLoads  int64 // loads/stores against the spill array
	SpillStores int64
	// ExecCounts records how many times each block executed (indexed by
	// block ID), letting harnesses find the hot loop.
	ExecCounts []int64
	// Profile is the run's cycle attribution, filled only by a run of a
	// profiled predecode; its per-cause counts sum exactly to Cycles.
	Profile *prof.Profile
}

// String renders the metrics.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d energy=%.0f instrs=%d loads=%d stores=%d misses=%d",
		m.Cycles, m.Energy, m.Instrs, m.Loads, m.Stores, m.CacheMiss)
	return b.String()
}

// vtag is the simulator-internal value type tag. It mirrors source.Type
// in a single byte so register values stay small (the register file is
// copied on every operand read).
type vtag uint8

const (
	tagUnknown = vtag(source.TUnknown)
	tagInt     = vtag(source.TInt)
	tagFloat   = vtag(source.TFloat)
	tagBool    = vtag(source.TBool)
)

// value is the simulator's register value.
type value struct {
	i int64
	f float64
	t vtag
	b bool
}

func (v value) asInt() int64 {
	if v.t == tagFloat {
		return int64(v.f)
	}
	return v.i
}

func (v value) asFloat() float64 {
	if v.t == tagFloat {
		return v.f
	}
	return float64(v.i)
}

// cache is a set-associative LRU L1 model over flat byte addresses. Its
// line size and set count are powers of two, so an access finds its
// line and set by shift and mask. Each set's ways sit in one flat array
// most-recent-first; an empty way holds -1, which no line (addresses are
// non-negative) matches, so hits and fills shift in place and never
// allocate.
type cache struct {
	lineShift uint
	setMask   int64
	assoc     int
	tags      []int64 // set*assoc + way, LRU order (way 0 = most recent)
}

func newCache(c machine.Cache) *cache {
	line := c.LineBytes
	if line <= 0 {
		line = 32
	}
	assoc := max(1, c.Assoc)
	sets := max(1, c.SizeBytes/(line*assoc))
	if line&(line-1) != 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("sim: L1 of %d-byte lines in %d sets: both must be powers of two", line, sets))
	}
	ch := &cache{
		lineShift: uint(bits.TrailingZeros(uint(line))),
		setMask:   int64(sets - 1),
		assoc:     assoc,
		tags:      make([]int64, sets*assoc),
	}
	ch.reset()
	return ch
}

// reset empties the cache without freeing its backing storage, so a
// pooled run state starts cold without reallocating the tag array.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
}

// access returns true on hit and updates LRU state.
func (c *cache) access(addr int64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.assoc
	ways := c.tags[base : base+c.assoc]
	k := 0
	for k < len(ways)-1 && ways[k] != line {
		k++
	}
	hit := ways[k] == line
	// Shift the more recent ways down over way k (the hit, or on a miss
	// the least recent, which is evicted) and put line first.
	for ; k > 0; k-- {
		ways[k] = ways[k-1]
	}
	ways[0] = line
	return hit
}

// arrayBinding is the per-run resolution of an array name: storage,
// element count and flat base address, resolved once at first touch
// instead of a map lookup per memory instruction.
type arrayBinding struct {
	name  string
	ai    *ir.ArrayInfo
	arr   *interp.Array
	n     int64 // element count (cached arr.Len())
	base  int64
	spill int64 // 1 for the spill array: added to the spill counters
}

// ctxCheckInterval is the number of simulated instructions between
// deadline/cancellation checkpoints. Checking costs one context.Err call
// (an uncontended mutex); at this interval the overhead is unmeasurable
// while a canceled request still stops within a few microseconds of
// simulated work.
const ctxCheckInterval = 16 * 1024

func fromInterp(v interp.Value) value {
	return value{t: vtag(v.T), i: v.I, f: v.F, b: v.B}
}

func toInterp(v value, t source.Type) interp.Value {
	switch t {
	case source.TInt:
		return interp.IntVal(v.asInt())
	case source.TFloat:
		return interp.FloatVal(v.asFloat())
	case source.TBool:
		return interp.BoolVal(v.b)
	}
	switch v.t {
	case tagInt:
		return interp.IntVal(v.i)
	case tagFloat:
		return interp.FloatVal(v.f)
	default:
		return interp.BoolVal(v.b)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

type simulator struct {
	pd       *Predecoded
	env      *interp.Env
	regs     []value
	regReady []int64
	missed   []bool
	bindings []arrayBinding
	cache    *cache
	m        *Metrics
	limit    int64

	// machine parameters the loop reads
	energy    [4]float64 // per-instruction energy by unit class
	inOrder   bool
	width     int32
	units     [4]int32
	branchLat int64
	penalty   int64

	// dynamic in-order issue state
	cycle  int64
	issued int32
	fuUsed [4]int32
	stalls int64

	// pr is the cycle-attribution accumulator, nil unless the predecode
	// is profiled. It is checked only where cycles are charged — block
	// entry, a stall, a taken branch, a miss — never per instruction.
	pr *profState

	// ctx, when non-nil, is polled every ctxCheckInterval instructions so
	// deadlines and cancellations stop long simulations promptly. The
	// per-block cost while dormant is two integer compares.
	ctx          context.Context
	nextCtxCheck int64

	nextBase int64 // array base address allocator
}

func (s *simulator) run() error {
	pd := s.pd
	nBlocks := len(pd.f.Blocks)
	static := !s.inOrder && pd.plan != nil
	last, prev := -1, -1 // the previously executed block and the one before
	blockID := 0
	for {
		if blockID < 0 || blockID >= nBlocks {
			return fmt.Errorf("sim: control fell off the program (block %d)", blockID)
		}
		if s.ctx != nil && s.m.Instrs >= s.nextCtxCheck {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("sim: aborted after %d instructions: %w", s.m.Instrs, err)
			}
			s.nextCtxCheck = s.m.Instrs + ctxCheckInterval
		}
		s.m.ExecCounts[blockID]++
		if static {
			s.chargeEntry(blockID, last, prev)
		}
		code := pd.code[pd.start[blockID]:pd.start[blockID+1]]
		// Only a block's last micro-op branches or halts, so the block
		// runs whole unless the limit falls inside it.
		overLimit := s.m.Instrs+int64(len(code)) > s.limit
		if overLimit {
			code = code[:s.limit-s.m.Instrs]
		}
		s.m.Instrs += int64(len(code))
		next, halted, err := s.execBlock(code, blockID+1)
		switch {
		case err != nil:
			return err
		case overLimit:
			return fmt.Errorf("sim: instruction limit exceeded (runaway loop?)")
		case halted:
			if s.inOrder {
				s.m.Cycles = s.cycle + 1
			}
			return nil
		}
		prev, last = last, blockID
		blockID = next
	}
}

// chargeEntry charges a block's static timing on entry (Static policy).
func (s *simulator) chargeEntry(id, last, prev int) {
	blocks := s.pd.plan.Blocks
	bt := &blocks[id]
	// A block repeats when it re-executes back to back, possibly with
	// only its (rotated-away) loop head in between.
	repeat := last == id ||
		(last >= 0 && last < len(blocks) &&
			blocks[last].LoopHead && blocks[last].BodyID == id && prev == id)
	var add int64
	switch {
	case bt.LoopHead && last == bt.BodyID:
		// Rotated loop: the back edge already paid for the test.
	case bt.IMS != nil && bt.IMS.OK:
		if repeat {
			add = int64(bt.IMS.II)
		} else {
			add = int64(bt.IMS.SL)
		}
	case bt.Sched != nil:
		if repeat {
			add = int64(bt.Sched.SteadyLen)
		} else {
			add = int64(bt.Sched.Len)
		}
	default:
		add = int64(len(s.pd.f.Blocks[id].Instrs))
	}
	s.m.Cycles += add
	if s.pr != nil {
		s.pr.chargeStatic(id, bt, repeat, add)
	}
}

// execBlock executes one block's micro-ops and returns the successor;
// fall is the fall-through block.
func (s *simulator) execBlock(code []uop, fall int) (next int, halted bool, err error) {
	regs, ready := s.regs, s.regReady
	// Energy accumulates in a register, in instruction order (a miss
	// adds its own after its instruction's), and is stored on the way
	// out of a block that completes.
	energy, perOp := s.m.Energy, &s.energy
	for i := range code {
		u := &code[i]
		energy += perOp[u.fu]
		if s.inOrder {
			// Issue at the earliest cycle every operand is ready and
			// the issue group has room on the unit.
			earliest, crit := s.cycle, int32(-1)
			if r := ready[u.a]; r > earliest {
				earliest, crit = r, u.a
			}
			if r := ready[u.b]; r > earliest {
				earliest, crit = r, u.b
			}
			if r := ready[u.c]; r > earliest {
				earliest, crit = r, u.c
			}
			if earliest > s.cycle || s.issued >= s.width || s.fuUsed[u.fu] >= s.units[u.fu] {
				s.stall(u, earliest, crit)
			}
			s.issued++
			s.fuUsed[u.fu]++
			if u.dst >= 0 {
				ready[u.dst] = s.cycle + int64(u.lat)
				s.missed[u.dst] = false
			}
		}
		switch u.op {
		case uNop:
		case uMov:
			regs[u.dst] = coerce(regs[u.a], u.typ)
		case uAddI:
			regs[u.dst] = value{t: tagInt, i: regs[u.a].asInt() + regs[u.b].asInt()}
		case uSubI:
			regs[u.dst] = value{t: tagInt, i: regs[u.a].asInt() - regs[u.b].asInt()}
		case uMulI:
			regs[u.dst] = value{t: tagInt, i: regs[u.a].asInt() * regs[u.b].asInt()}
		case uDivI, uModI:
			x, y := regs[u.a].asInt(), regs[u.b].asInt()
			if y == 0 {
				if u.op == uDivI {
					return 0, false, fmt.Errorf("sim: integer division by zero")
				}
				return 0, false, fmt.Errorf("sim: integer modulo by zero")
			}
			if u.op == uDivI {
				regs[u.dst] = value{t: tagInt, i: x / y}
			} else {
				regs[u.dst] = value{t: tagInt, i: x % y}
			}
		case uNegI:
			regs[u.dst] = value{t: tagInt, i: -regs[u.a].asInt()}
		case uAddF:
			regs[u.dst] = value{t: tagFloat, f: regs[u.a].asFloat() + regs[u.b].asFloat()}
		case uSubF:
			regs[u.dst] = value{t: tagFloat, f: regs[u.a].asFloat() - regs[u.b].asFloat()}
		case uMulF:
			regs[u.dst] = value{t: tagFloat, f: regs[u.a].asFloat() * regs[u.b].asFloat()}
		case uDivF:
			regs[u.dst] = value{t: tagFloat, f: regs[u.a].asFloat() / regs[u.b].asFloat()}
		case uModF:
			regs[u.dst] = value{t: tagFloat, f: math.Mod(regs[u.a].asFloat(), regs[u.b].asFloat())}
		case uNegF:
			regs[u.dst] = value{t: tagFloat, f: -regs[u.a].asFloat()}
		case uLTI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() < regs[u.b].asInt()}
		case uLEI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() <= regs[u.b].asInt()}
		case uGTI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() > regs[u.b].asInt()}
		case uGEI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() >= regs[u.b].asInt()}
		case uEQI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() == regs[u.b].asInt()}
		case uNEI:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asInt() != regs[u.b].asInt()}
		case uLTF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() < regs[u.b].asFloat()}
		case uLEF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() <= regs[u.b].asFloat()}
		case uGTF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() > regs[u.b].asFloat()}
		case uGEF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() >= regs[u.b].asFloat()}
		case uEQF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() == regs[u.b].asFloat()}
		case uNEF:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].asFloat() != regs[u.b].asFloat()}
		case uEQB:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].b == regs[u.b].b}
		case uNEB:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].b != regs[u.b].b}
		case uAnd:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].b && regs[u.b].b}
		case uOr:
			regs[u.dst] = value{t: tagBool, b: regs[u.a].b || regs[u.b].b}
		case uNot:
			regs[u.dst] = value{t: tagBool, b: !regs[u.a].b}
		case uSelect:
			if regs[u.a].b {
				regs[u.dst] = coerce(regs[u.b], u.typ)
			} else {
				regs[u.dst] = coerce(regs[u.c], u.typ)
			}
		case uLoad:
			bd, idx, err := s.address(u)
			if err != nil {
				return 0, false, err
			}
			if !s.cache.access(bd.base + idx*8) {
				energy += s.pd.d.Energy.Miss
				s.miss(u)
			}
			s.m.Loads++
			s.m.SpillLoads += bd.spill
			a := bd.arr
			var v value
			switch a.Type {
			case source.TInt:
				v = value{t: tagInt, i: a.I[idx]}
			case source.TBool:
				v = value{t: tagBool, b: a.F[idx] != 0}
			default:
				v = value{t: tagFloat, f: a.F[idx]}
			}
			regs[u.dst] = coerce(v, u.typ)
		case uStore:
			bd, idx, err := s.address(u)
			if err != nil {
				return 0, false, err
			}
			if !s.cache.access(bd.base + idx*8) {
				energy += s.pd.d.Energy.Miss
				s.miss(u)
			}
			s.m.Stores++
			s.m.SpillStores += bd.spill
			a, v := bd.arr, regs[u.b]
			switch {
			case a.Type == source.TInt && v.t == tagBool:
				a.I[idx] = b2i(v.b)
			case a.Type == source.TInt:
				a.I[idx] = v.asInt()
			case v.t == tagBool:
				a.F[idx] = float64(b2i(v.b))
			default:
				a.F[idx] = v.asFloat()
			}
		case uCall:
			r := intrinsics[u.aux].fn(regs[u.a].asFloat(), regs[u.b].asFloat())
			if u.typ == tagInt {
				regs[u.dst] = value{t: tagInt, i: int64(r)}
			} else {
				regs[u.dst] = value{t: tagFloat, f: r}
			}
		case uBr:
			s.m.Energy = energy
			s.taken(u)
			return int(u.aux), false, nil
		case uBrTrue, uBrFalse:
			s.m.Energy = energy
			s.taken(u)
			if regs[u.a].b == (u.op == uBrTrue) {
				return int(u.aux), false, nil
			}
			return fall, false, nil
		case uHalt:
			s.m.Energy = energy
			s.taken(u)
			if s.inOrder && s.pr != nil {
				// run() pays cycle+1 on halt; attribute the final cycle.
				s.pr.charge(u.slot, prof.CauseIssue, 1)
			}
			return 0, true, nil
		case uBad:
			// The micro-ops parallel the block's instructions.
			return 0, false, failure(s.pd.f.Blocks[fall-1].Instrs[i])
		}
	}
	s.m.Energy = energy
	return fall, false, nil
}

// stall advances the in-order issue model past a hazard or a full issue
// group: straight to the cycle earliest, the first at which every
// operand is ready, or to the next cycle when only the group was full.
// A profiled run charges the cycles to u's slot in bulk, with the
// per-cause totals a cycle-by-cycle walk gives: the closing cycle of a
// group that issued is issue, the tail of a wait on a register crit
// whose value was delayed by an L1 miss is the miss, the rest hazard.
func (s *simulator) stall(u *uop, earliest int64, crit int32) {
	to := max(s.cycle+1, earliest)
	s.stalls++
	if s.pr != nil {
		c := s.cycle
		if s.issued > 0 {
			s.pr.charge(u.slot, prof.CauseIssue, 1)
			c++
		}
		if n := to - c; n > 0 {
			hazard := n
			if earliest > c && crit >= 0 && s.missed[crit] {
				hazard = min(n, max(0, earliest-s.penalty-c))
			}
			s.pr.charge(u.slot, prof.CauseHazard, hazard)
			s.pr.charge(u.slot, prof.CauseMiss, n-hazard)
		}
	}
	s.cycle = to
	s.issued = 0
	s.fuUsed = [4]int32{}
}

// taken redirects in-order issue after a branch or halt: the redirect
// costs the branch latency and closes the issue group.
func (s *simulator) taken(u *uop) {
	if !s.inOrder {
		return
	}
	if s.pr != nil {
		s.pr.charge(u.slot, prof.CauseBranch, s.branchLat)
	}
	s.cycle += s.branchLat
	s.issued = 0
	s.fuUsed = [4]int32{}
}

// address resolves a load's or store's binding and element index and
// checks the bounds.
func (s *simulator) address(u *uop) (*arrayBinding, int64, error) {
	bd := &s.bindings[u.aux]
	if bd.arr == nil {
		if err := s.bind(bd); err != nil {
			return nil, 0, err
		}
	}
	idx := s.regs[u.a].asInt()
	if idx < 0 || idx >= bd.n {
		return nil, 0, fmt.Errorf("sim: %s[%d] out of range [0,%d)", bd.name, idx, bd.n)
	}
	return bd, idx, nil
}

// miss charges an L1 miss's cycles depending on the issue policy (the
// caller adds its energy).
func (s *simulator) miss(u *uop) {
	s.m.CacheMiss++
	switch {
	case !s.inOrder:
		s.m.Cycles += s.penalty
		if s.pr != nil {
			s.pr.chargeBlock(int(s.pr.slotBlock[u.slot]), prof.CauseMiss, s.penalty)
		}
	case u.dst >= 0:
		// The penalty surfaces later as a stall on the loaded register;
		// flag it so the stall classifier charges the waiting cycles (if
		// any materialize) to the miss.
		s.regReady[u.dst] += s.penalty
		s.missed[u.dst] = true
	default:
		s.cycle += s.penalty
		if s.pr != nil {
			s.pr.charge(u.slot, prof.CauseMiss, s.penalty)
		}
	}
}

// bind resolves an array binding on first touch: it finds (or allocates)
// the storage for the name and assigns its flat base address. Allocation
// order — and therefore every address the cache model sees — matches
// first-touch execution order, exactly as when the lookup happened per
// instruction.
func (s *simulator) bind(bd *arrayBinding) error {
	ai := bd.ai
	if ai == nil {
		return fmt.Errorf("sim: unknown array %q", bd.name)
	}
	if a, ok := s.env.Arrays[bd.name]; ok {
		bd.arr = a
		bd.n = int64(a.Len())
		bd.base = s.allocBase(bd.n)
		return nil
	}
	var dims []int
	total := 1
	if ai.StaticLen > 0 {
		dims = []int{ai.StaticLen}
		total = ai.StaticLen
	} else {
		dims = make([]int, len(ai.DimRegs))
		for k, r := range ai.DimRegs {
			dims[k] = int(s.regs[r].asInt())
			if dims[k] <= 0 {
				return fmt.Errorf("sim: array %q has dimension %d", bd.name, dims[k])
			}
			total *= dims[k]
		}
	}
	a := interp.NewArray(ai.Type, dims...)
	s.env.Arrays[bd.name] = a
	bd.arr = a
	bd.n = int64(total)
	bd.base = s.allocBase(bd.n)
	return nil
}

func (s *simulator) allocBase(elems int64) int64 {
	if s.nextBase == 0 {
		s.nextBase = 4096
	}
	base := s.nextBase
	s.nextBase += elems*8 + 64
	return base
}

// coerce converts v to the type tag t; an untyped t keeps v as it is.
func coerce(v value, t vtag) value {
	if v.t == t || t == tagUnknown {
		return v
	}
	switch t {
	case tagInt:
		if v.t == tagBool {
			return value{t: tagInt, i: b2i(v.b)}
		}
		return value{t: tagInt, i: v.asInt()}
	case tagFloat:
		if v.t == tagBool {
			return value{t: tagFloat, f: float64(b2i(v.b))}
		}
		return value{t: tagFloat, f: v.asFloat()}
	case tagBool:
		// Numeric → bool: non-zero is true (bool array loads).
		if v.t == tagInt || v.t == tagFloat {
			return value{t: tagBool, b: v.asFloat() != 0}
		}
		return value{t: tagBool, b: v.b}
	}
	return v
}
