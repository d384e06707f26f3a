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
// Run never mutates the program or the plan: all per-execution state
// (register file, array bindings, base addresses, predecoded
// instruction attributes) lives in the simulator, so one compiled
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
var (
	simRuns   = obs.CounterName("sim.runs")
	simCycles = obs.CounterName("sim.cycles")
	simInstrs = obs.CounterName("sim.instrs")
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
	// Profile is the run's cycle attribution, filled only when
	// prof.Enabled(); its per-cause counts sum exactly to Cycles.
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

// cache is a set-associative LRU L1 model over flat byte addresses.
// Ways are stored most-recent-first in a fixed-capacity slice per set,
// so hits and fills shift in place and never allocate.
type cache struct {
	sets  int
	assoc int
	line  int64
	tags  [][]int64 // per set, LRU order (front = most recent)
}

func newCache(c machine.Cache) *cache {
	line := c.LineBytes
	if line <= 0 {
		line = 32
	}
	assoc := max(1, c.Assoc)
	sets := c.SizeBytes / (line * assoc)
	if sets < 1 {
		sets = 1
	}
	tags := make([][]int64, sets)
	backing := make([]int64, sets*assoc)
	for i := range tags {
		tags[i] = backing[i*assoc : i*assoc : (i+1)*assoc]
	}
	return &cache{sets: sets, assoc: assoc, line: int64(line), tags: tags}
}

// reset empties the cache without freeing its backing storage, so a
// pooled run state starts cold without reallocating the tag arrays.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = c.tags[i][:0]
	}
}

// access returns true on hit and updates LRU state.
func (c *cache) access(addr int64) bool {
	lineAddr := addr / c.line
	set := int(lineAddr % int64(c.sets))
	ways := c.tags[set]
	for k, t := range ways {
		if t == lineAddr {
			copy(ways[1:k+1], ways[:k])
			ways[0] = lineAddr
			return true
		}
	}
	if len(ways) < c.assoc {
		ways = append(ways, 0)
		c.tags[set] = ways
	}
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = lineAddr
	return false
}

// arrayBinding is the per-run resolution of an array name: storage,
// element count and flat base address, resolved once at first touch
// instead of a map lookup per memory instruction.
type arrayBinding struct {
	name    string
	ai      *ir.ArrayInfo
	arr     *interp.Array
	n       int64 // element count (cached arr.Len())
	base    int64
	isSpill bool
}

// instrInfo is the predecoded per-instruction attribute record: energy,
// latency and functional unit under the target machine, plus the array
// binding index for memory instructions. Computed once per Run so the
// inner loop never consults the machine description or an array map.
type instrInfo struct {
	energy float64
	lat    int64
	fu     uint8
	mem    int32 // index into simulator.bindings, -1 for non-mem ops
	slot   int32 // profiler (block, line) slot; valid only when profiling
}

// ctxCheckInterval is the number of simulated instructions between
// deadline/cancellation checkpoints. Checking costs one context.Err call
// (an uncontended mutex); at this interval the overhead is unmeasurable
// while a canceled request still stops within a few microseconds of
// simulated work.
const ctxCheckInterval = 16 * 1024

// Run simulates f on machine d with timing plan, reading inputs from and
// writing results back to env. maxInstrs guards against runaway loops
// (0 = 500M). Run treats f and plan as read-only.
func Run(f *ir.Func, d *machine.Desc, plan *Plan, env *interp.Env, maxInstrs int64) (*Metrics, error) {
	return RunCtx(context.Background(), f, d, plan, env, maxInstrs)
}

// RunCtx is Run honoring a context: the execution loop checks ctx every
// ctxCheckInterval instructions and aborts with an error wrapping
// ctx.Err() (so errors.Is(err, context.DeadlineExceeded) works) when the
// deadline passes or the caller cancels. A context.Background() call is
// identical to Run.
//
// Each call predecodes afresh; callers running the same artifact more
// than once should Predecode it and use Predecoded.RunCtx (the pipeline
// caches a predecode per artifact).
func RunCtx(ctx context.Context, f *ir.Func, d *machine.Desc, plan *Plan, env *interp.Env, maxInstrs int64) (*Metrics, error) {
	return Predecode(f, d, plan, prof.Enabled()).RunCtx(ctx, env, maxInstrs)
}

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

type simulator struct {
	f     *ir.Func
	d     *machine.Desc
	plan  *Plan
	env   *interp.Env
	regs  []value
	cache *cache
	m     *Metrics
	limit int64

	// predecoded program attributes, parallel to f.Blocks[i].Instrs
	info     [][]instrInfo
	bindings []arrayBinding

	// dynamic in-order issue state
	cycle    int64
	issued   int
	fuUsed   [4]int
	regReady []int64

	// static-timing state
	lastBlock int // previously executed block
	prevBlock int // block before that

	// pr is the cycle-attribution accumulator; nil unless profiling is
	// enabled, and every hot-path touch is behind a nil check.
	pr *profState

	// ctx, when non-nil, is polled every ctxCheckInterval instructions so
	// deadlines and cancellations stop long simulations promptly. The
	// per-block cost while dormant is two integer compares.
	ctx          context.Context
	nextCtxCheck int64

	nextBase int64 // array base address allocator
}

func (s *simulator) run() error {
	if s.regReady == nil {
		s.regReady = make([]int64, s.f.NumRegs)
	}
	s.lastBlock = -1
	s.prevBlock = -1
	blockID := 0
	for {
		if blockID < 0 || blockID >= len(s.f.Blocks) {
			return fmt.Errorf("sim: control fell off the program (block %d)", blockID)
		}
		b := s.f.Blocks[blockID]
		if s.ctx != nil && s.m.Instrs >= s.nextCtxCheck {
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("sim: aborted after %d instructions: %w", s.m.Instrs, err)
			}
			s.nextCtxCheck = s.m.Instrs + ctxCheckInterval
		}
		s.m.ExecCounts[blockID]++
		next, halted, err := s.execBlock(b)
		if err != nil {
			return err
		}
		if halted {
			if s.d.Policy == machine.InOrder {
				s.m.Cycles = s.cycle + 1
			}
			return nil
		}
		s.prevBlock = s.lastBlock
		s.lastBlock = blockID
		blockID = next
	}
}

// execBlock executes one block and returns the successor.
func (s *simulator) execBlock(b *ir.Block) (next int, halted bool, err error) {
	// Static timing: charge block cost on entry.
	if s.d.Policy == machine.Static && s.plan != nil {
		bt := &s.plan.Blocks[b.ID]
		// A block repeats when it re-executes back to back, possibly with
		// only its (rotated-away) loop head in between.
		repeat := s.lastBlock == b.ID ||
			(s.lastBlock >= 0 && s.lastBlock < len(s.plan.Blocks) &&
				s.plan.Blocks[s.lastBlock].LoopHead &&
				s.plan.Blocks[s.lastBlock].BodyID == b.ID && s.prevBlock == b.ID)
		var add int64
		switch {
		case bt.LoopHead && s.lastBlock == bt.BodyID:
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
			add = int64(len(b.Instrs))
		}
		s.m.Cycles += add
		if s.pr != nil {
			s.pr.chargeStatic(b, bt, repeat, add)
		}
	}
	next = b.ID + 1
	infos := s.info[b.ID]
	inOrder := s.d.Policy == machine.InOrder
	profInOrder := inOrder && s.pr != nil
	for idx, in := range b.Instrs {
		s.m.Instrs++
		if s.m.Instrs > s.limit {
			return 0, false, fmt.Errorf("sim: instruction limit exceeded (runaway loop?)")
		}
		ii := &infos[idx]
		s.m.Energy += ii.energy
		if profInOrder {
			s.issueInOrderProf(in, ii)
		} else if inOrder {
			s.issueInOrder(in, ii)
		}
		switch in.Op {
		case ir.Br:
			return in.Target, false, nil
		case ir.BrTrue:
			if s.val(in.Args[0]).b {
				return in.Target, false, nil
			}
			return next, false, nil
		case ir.BrFalse:
			if !s.val(in.Args[0]).b {
				return in.Target, false, nil
			}
			return next, false, nil
		case ir.Halt:
			if profInOrder {
				// run() pays cycle+1 on halt; attribute the final cycle.
				s.pr.charge(ii.slot, prof.CauseIssue, 1)
			}
			return 0, true, nil
		default:
			if err := s.exec(in, ii); err != nil {
				return 0, false, err
			}
		}
	}
	return next, false, nil
}

// issueInOrder advances the dynamic issue model for one instruction.
func (s *simulator) issueInOrder(in *ir.Instr, ii *instrInfo) {
	earliest := s.cycle
	for _, a := range in.Args {
		if a.Kind == ir.KReg && s.regReady[a.Reg] > earliest {
			earliest = s.regReady[a.Reg]
		}
	}
	fu := ii.fu
	for earliest > s.cycle || s.issued >= s.d.IssueWidth || s.fuUsed[fu] >= s.d.Units[fu] {
		s.cycle++
		s.issued = 0
		s.fuUsed = [4]int{}
	}
	s.issued++
	s.fuUsed[fu]++
	if in.Dst >= 0 {
		s.regReady[in.Dst] = s.cycle + ii.lat
	}
	if fu == uint8(machine.FUBranch) {
		// Taken-branch redirection costs the branch latency.
		s.cycle += int64(s.d.Lat.Branch)
		s.issued = 0
		s.fuUsed = [4]int{}
	}
}

// issueInOrderProf is issueInOrder with cycle attribution: the same
// timing decisions instruction for instruction, but every cycle the
// model advances is charged to the stalling instruction's slot. Kept as
// a separate copy so the unprofiled path stays branch-free; execBlock
// picks the variant once per instruction.
func (s *simulator) issueInOrderProf(in *ir.Instr, ii *instrInfo) {
	earliest := s.cycle
	crit := -1
	for _, a := range in.Args {
		if a.Kind == ir.KReg && s.regReady[a.Reg] > earliest {
			earliest = s.regReady[a.Reg]
			crit = a.Reg
		}
	}
	fu := ii.fu
	for earliest > s.cycle || s.issued >= s.d.IssueWidth || s.fuUsed[fu] >= s.d.Units[fu] {
		var c prof.Cause
		switch {
		case s.issued > 0:
			// The cycle being closed out issued instructions: work.
			c = prof.CauseIssue
		case earliest > s.cycle && crit >= 0 && s.pr.missReady[crit] &&
			s.cycle >= earliest-s.pr.penalty:
			// The tail of the wait traced to an L1 miss on the
			// critical register; the head was plain latency.
			c = prof.CauseMiss
		default:
			c = prof.CauseHazard
		}
		s.pr.charge(ii.slot, c, 1)
		s.cycle++
		s.issued = 0
		s.fuUsed = [4]int{}
	}
	s.issued++
	s.fuUsed[fu]++
	if in.Dst >= 0 {
		s.regReady[in.Dst] = s.cycle + ii.lat
		s.pr.missReady[in.Dst] = false
	}
	if fu == uint8(machine.FUBranch) {
		s.pr.charge(ii.slot, prof.CauseBranch, int64(s.d.Lat.Branch))
		s.cycle += int64(s.d.Lat.Branch)
		s.issued = 0
		s.fuUsed = [4]int{}
	}
}

// chargeMem charges an L1 miss depending on the issue policy.
func (s *simulator) chargeMem(in *ir.Instr, ii *instrInfo, addr int64) {
	hit := s.cache.access(addr)
	if hit {
		return
	}
	s.m.CacheMiss++
	s.m.Energy += s.d.Energy.Miss
	penalty := int64(s.d.Cache.MissPenalty)
	if s.d.Policy == machine.InOrder {
		if in.Dst >= 0 {
			// The penalty surfaces later as a stall on the loaded
			// register; flag it so the stall classifier charges the
			// waiting cycles (if any materialize) to the miss.
			s.regReady[in.Dst] += penalty
			if s.pr != nil {
				s.pr.missReady[in.Dst] = true
			}
		} else {
			s.cycle += penalty
			if s.pr != nil {
				s.pr.charge(ii.slot, prof.CauseMiss, penalty)
			}
		}
	} else {
		s.m.Cycles += penalty
		if s.pr != nil {
			s.pr.chargeBlock(int(s.pr.slotBlock[ii.slot]), prof.CauseMiss, penalty)
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

func (s *simulator) val(a ir.Val) value {
	switch a.Kind {
	case ir.KReg:
		return s.regs[a.Reg]
	case ir.KInt:
		return value{t: tagInt, i: a.I}
	case ir.KFloat:
		return value{t: tagFloat, f: a.F}
	default:
		return value{t: tagBool, b: a.B}
	}
}

func (s *simulator) set(r int, v value) { s.regs[r] = v }

func (s *simulator) exec(in *ir.Instr, ii *instrInfo) error {
	switch in.Op {
	case ir.Nop:
		return nil
	case ir.Mov:
		s.set(in.Dst, coerce(s.val(in.Args[0]), in.Type))
		return nil
	case ir.Cvt:
		s.set(in.Dst, coerce(s.val(in.Args[0]), in.Type))
		return nil
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
		x, y := s.val(in.Args[0]), s.val(in.Args[1])
		if in.Type == source.TFloat {
			a, b := x.asFloat(), y.asFloat()
			var r float64
			switch in.Op {
			case ir.Add:
				r = a + b
			case ir.Sub:
				r = a - b
			case ir.Mul:
				r = a * b
			case ir.Div:
				r = a / b
			case ir.Mod:
				r = math.Mod(a, b)
			}
			s.set(in.Dst, value{t: tagFloat, f: r})
			return nil
		}
		a, b := x.asInt(), y.asInt()
		var r int64
		switch in.Op {
		case ir.Add:
			r = a + b
		case ir.Sub:
			r = a - b
		case ir.Mul:
			r = a * b
		case ir.Div:
			if b == 0 {
				return fmt.Errorf("sim: integer division by zero")
			}
			r = a / b
		case ir.Mod:
			if b == 0 {
				return fmt.Errorf("sim: integer modulo by zero")
			}
			r = a % b
		}
		s.set(in.Dst, value{t: tagInt, i: r})
		return nil
	case ir.Neg:
		x := s.val(in.Args[0])
		if in.Type == source.TFloat {
			s.set(in.Dst, value{t: tagFloat, f: -x.asFloat()})
		} else {
			s.set(in.Dst, value{t: tagInt, i: -x.asInt()})
		}
		return nil
	case ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE, ir.CmpEQ, ir.CmpNE:
		x, y := s.val(in.Args[0]), s.val(in.Args[1])
		var r bool
		if in.Type == source.TBool {
			switch in.Op {
			case ir.CmpEQ:
				r = x.b == y.b
			case ir.CmpNE:
				r = x.b != y.b
			default:
				return fmt.Errorf("sim: ordered comparison of bools")
			}
		} else if in.Type == source.TInt {
			a, b := x.asInt(), y.asInt()
			switch in.Op {
			case ir.CmpLT:
				r = a < b
			case ir.CmpLE:
				r = a <= b
			case ir.CmpGT:
				r = a > b
			case ir.CmpGE:
				r = a >= b
			case ir.CmpEQ:
				r = a == b
			case ir.CmpNE:
				r = a != b
			}
		} else {
			a, b := x.asFloat(), y.asFloat()
			switch in.Op {
			case ir.CmpLT:
				r = a < b
			case ir.CmpLE:
				r = a <= b
			case ir.CmpGT:
				r = a > b
			case ir.CmpGE:
				r = a >= b
			case ir.CmpEQ:
				r = a == b
			case ir.CmpNE:
				r = a != b
			}
		}
		s.set(in.Dst, value{t: tagBool, b: r})
		return nil
	case ir.And:
		s.set(in.Dst, value{t: tagBool, b: s.val(in.Args[0]).b && s.val(in.Args[1]).b})
		return nil
	case ir.Or:
		s.set(in.Dst, value{t: tagBool, b: s.val(in.Args[0]).b || s.val(in.Args[1]).b})
		return nil
	case ir.Not:
		s.set(in.Dst, value{t: tagBool, b: !s.val(in.Args[0]).b})
		return nil
	case ir.Select:
		c := s.val(in.Args[0])
		if c.b {
			s.set(in.Dst, coerce(s.val(in.Args[1]), in.Type))
		} else {
			s.set(in.Dst, coerce(s.val(in.Args[2]), in.Type))
		}
		return nil
	case ir.Load:
		bd := &s.bindings[ii.mem]
		if bd.arr == nil {
			if err := s.bind(bd); err != nil {
				return err
			}
		}
		idx := s.val(in.Args[0]).asInt()
		if idx < 0 || idx >= bd.n {
			return fmt.Errorf("sim: %s[%d] out of range [0,%d)", in.Arr, idx, bd.n)
		}
		s.m.Loads++
		if bd.isSpill {
			s.m.SpillLoads++
		}
		s.chargeMem(in, ii, bd.base+idx*8)
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
		s.set(in.Dst, coerce(v, in.Type))
		return nil
	case ir.Store:
		bd := &s.bindings[ii.mem]
		if bd.arr == nil {
			if err := s.bind(bd); err != nil {
				return err
			}
		}
		idx := s.val(in.Args[0]).asInt()
		if idx < 0 || idx >= bd.n {
			return fmt.Errorf("sim: %s[%d] out of range [0,%d)", in.Arr, idx, bd.n)
		}
		s.m.Stores++
		if bd.isSpill {
			s.m.SpillStores++
		}
		s.chargeMem(in, ii, bd.base+idx*8)
		a := bd.arr
		v := s.val(in.Args[1])
		switch {
		case a.Type == source.TInt && v.t == tagBool:
			if v.b {
				a.I[idx] = 1
			} else {
				a.I[idx] = 0
			}
		case a.Type == source.TInt:
			a.I[idx] = v.asInt()
		case v.t == tagBool:
			if v.b {
				a.F[idx] = 1
			} else {
				a.F[idx] = 0
			}
		default:
			a.F[idx] = v.asFloat()
		}
		return nil
	case ir.Call:
		args := make([]float64, len(in.Args))
		for k, a := range in.Args {
			args[k] = s.val(a).asFloat()
		}
		var r float64
		switch strings.ToLower(in.Fn) {
		case "abs":
			r = math.Abs(args[0])
		case "sqrt":
			r = math.Sqrt(args[0])
		case "exp":
			r = math.Exp(args[0])
		case "log":
			r = math.Log(args[0])
		case "sin":
			r = math.Sin(args[0])
		case "cos":
			r = math.Cos(args[0])
		case "pow":
			r = math.Pow(args[0], args[1])
		case "min":
			r = math.Min(args[0], args[1])
		case "max":
			r = math.Max(args[0], args[1])
		case "sign":
			r = math.Copysign(math.Abs(args[0]), args[1])
		case "mod":
			r = math.Mod(args[0], args[1])
		default:
			return fmt.Errorf("sim: unknown intrinsic %q", in.Fn)
		}
		if in.Type == source.TInt {
			s.set(in.Dst, value{t: tagInt, i: int64(r)})
		} else {
			s.set(in.Dst, value{t: tagFloat, f: r})
		}
		return nil
	}
	return fmt.Errorf("sim: cannot execute %v", in.Op)
}

func coerce(v value, t source.Type) value {
	tag := vtag(t)
	if v.t == tag || t == source.TUnknown {
		return v
	}
	switch tag {
	case tagInt:
		if v.t == tagBool {
			if v.b {
				return value{t: tagInt, i: 1}
			}
			return value{t: tagInt, i: 0}
		}
		return value{t: tagInt, i: v.asInt()}
	case tagFloat:
		if v.t == tagBool {
			if v.b {
				return value{t: tagFloat, f: 1}
			}
			return value{t: tagFloat, f: 0}
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
