package sim

// The simulator's differential reference: the decoder the micro-op
// table replaced, kept test-only. It walks []*ir.Instr, decodes every
// ir.Val operand on each read, keeps a per-instruction attribute record
// beside the instruction, divides to index its L1 and issues a stall
// one cycle at a time, so an exact match with it pins the micro-op core
// bit for bit.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/prof"
	"slms/internal/source"
)

// refRun simulates f on d under plan from env with the reference
// decoder, in the profiled or the plain mode, from a fresh state.
func refRun(f *ir.Func, d *machine.Desc, plan *Plan, profiled bool, env *interp.Env, maxInstrs int64) (*Metrics, error) {
	if maxInstrs == 0 {
		maxInstrs = 500_000_000
	}
	var tables *refProfTables
	if profiled {
		tables = newRefProfTables(f, d)
	}
	byName := map[string]int32{}
	var defs []refBinding
	info := make([][]refInfo, len(f.Blocks))
	for _, b := range f.Blocks {
		infos := make([]refInfo, len(b.Instrs))
		for i, in := range b.Instrs {
			ii := refInfo{
				energy: d.OpEnergy(in),
				lat:    int64(d.Latency(in)),
				fu:     uint8(machine.UnitOf(in)),
				mem:    -1,
			}
			if in.Op == ir.Load || in.Op == ir.Store {
				id, ok := byName[in.Arr]
				if !ok {
					id = int32(len(defs))
					byName[in.Arr] = id
					defs = append(defs, refBinding{
						name:    in.Arr,
						ai:      f.Arrays[in.Arr],
						isSpill: in.Arr == backend.SpillArray,
					})
				}
				ii.mem = id
			}
			if tables != nil {
				ii.slot = tables.slotFor(b.ID, in.Line)
			}
			infos[i] = ii
		}
		info[b.ID] = infos
		if tables != nil && plan != nil {
			if bt := &plan.Blocks[b.ID]; bt.Sched != nil {
				tables.schedIssue[b.ID] = int32(bt.Sched.Bundles)
			}
		}
	}
	s := &refSim{
		f: f, d: d, plan: plan, env: env,
		regs:     make([]value, f.NumRegs),
		refCache: newRefCache(d.Cache),
		m:        &Metrics{ExecCounts: make([]int64, len(f.Blocks))},
		limit:    maxInstrs,
		info:     info,
		bindings: defs,
	}
	if tables != nil {
		s.pr = &refProfState{}
		s.pr.reset(tables, f)
	}
	for name, r := range f.ScalarRegs {
		if v, ok := env.Scalars[name]; ok {
			s.regs[r] = fromInterp(v)
		} else {
			s.regs[r] = value{t: vtag(f.RegTypes[r])}
		}
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	for name, r := range f.ScalarRegs {
		env.Scalars[name] = toInterp(s.regs[r], f.RegTypes[r])
	}
	s.m.Energy += d.Energy.Static * float64(s.m.Cycles)
	if s.pr != nil {
		s.m.Profile = s.pr.fold(f, s.m, d)
	}
	return s.m, nil
}

// refCache is a set-associative LRU L1 model over flat byte addresses.
// Ways are stored most-recent-first in a fixed-capacity slice per set,
// so hits and fills shift in place and never allocate.
type refCache struct {
	sets  int
	assoc int
	line  int64
	tags  [][]int64 // per set, LRU order (front = most recent)
}

func newRefCache(c machine.Cache) *refCache {
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
	return &refCache{sets: sets, assoc: assoc, line: int64(line), tags: tags}
}

// reset empties the refCache without freeing its backing storage, so a
// pooled run state starts cold without reallocating the tag arrays.
func (c *refCache) reset() {
	for i := range c.tags {
		c.tags[i] = c.tags[i][:0]
	}
}

// access returns true on hit and updates LRU state.
func (c *refCache) access(addr int64) bool {
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

// refBinding is the per-run resolution of an array name: storage,
// element count and flat base address, resolved once at first touch
// instead of a map lookup per memory instruction.
type refBinding struct {
	name    string
	ai      *ir.ArrayInfo
	arr     *interp.Array
	n       int64 // element count (cached arr.Len())
	base    int64
	isSpill bool
}

// refInfo is the predecoded per-instruction attribute record: energy,
// latency and functional unit under the target machine, plus the array
// binding index for memory instructions. Computed once per Run so the
// inner loop never consults the machine description or an array map.
type refInfo struct {
	energy float64
	lat    int64
	fu     uint8
	mem    int32 // index into refSim.bindings, -1 for non-mem ops
	slot   int32 // profiler (block, line) slot; valid only when profiling
}

type refSim struct {
	f        *ir.Func
	d        *machine.Desc
	plan     *Plan
	env      *interp.Env
	regs     []value
	refCache *refCache
	m        *Metrics
	limit    int64

	// predecoded program attributes, parallel to f.Blocks[i].Instrs
	info     [][]refInfo
	bindings []refBinding

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
	pr *refProfState

	// ctx, when non-nil, is polled every ctxCheckInterval instructions so
	// deadlines and cancellations stop long simulations promptly. The
	// per-block cost while dormant is two integer compares.
	ctx          context.Context
	nextCtxCheck int64

	nextBase int64 // array base address allocator
}

func (s *refSim) run() error {
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
func (s *refSim) execBlock(b *ir.Block) (next int, halted bool, err error) {
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
func (s *refSim) issueInOrder(in *ir.Instr, ii *refInfo) {
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
func (s *refSim) issueInOrderProf(in *ir.Instr, ii *refInfo) {
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
func (s *refSim) chargeMem(in *ir.Instr, ii *refInfo, addr int64) {
	hit := s.refCache.access(addr)
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
// order — and therefore every address the refCache model sees — matches
// first-touch execution order, exactly as when the lookup happened per
// instruction.
func (s *refSim) bind(bd *refBinding) error {
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

func (s *refSim) allocBase(elems int64) int64 {
	if s.nextBase == 0 {
		s.nextBase = 4096
	}
	base := s.nextBase
	s.nextBase += elems*8 + 64
	return base
}

func (s *refSim) val(a ir.Val) value {
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

func (s *refSim) set(r int, v value) { s.regs[r] = v }

func (s *refSim) exec(in *ir.Instr, ii *refInfo) error {
	switch in.Op {
	case ir.Nop:
		return nil
	case ir.Mov:
		s.set(in.Dst, refCoerce(s.val(in.Args[0]), in.Type))
		return nil
	case ir.Cvt:
		s.set(in.Dst, refCoerce(s.val(in.Args[0]), in.Type))
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
			s.set(in.Dst, refCoerce(s.val(in.Args[1]), in.Type))
		} else {
			s.set(in.Dst, refCoerce(s.val(in.Args[2]), in.Type))
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
		s.set(in.Dst, refCoerce(v, in.Type))
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

func refCoerce(v value, t source.Type) value {
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

// refProfState is the per-Run cycle-attribution accumulator. It lives in
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
// predecode across runs: refProfTables is the immutable (block, line) slot
// interning built once per predecode, refProfState the per-run counter set
// laid over it.
type refProfState struct {
	*refProfTables
	slotCounts  []int64 // slot*NumCauses+cause: dynamic-issue charges
	blockCounts []int64 // block*NumCauses+cause: static charges

	// missReady flags registers whose pending value was delayed by an
	// L1 miss, so the stall classifier can split hazard from miss.
	missReady []bool
}

// refProfTables is the immutable-after-predecode half of the profiler: the
// slot interning, refApportion weights and schedule issue counts. One
// refProfTables is shared by every run of a predecoded artifact.
type refProfTables struct {
	slotBlock  []int32 // slot -> block ID
	slotLine   []int32 // slot -> source line (0 = generated)
	slotWeight []int64 // slot -> instruction count (refApportion weights)
	blockSlots [][]int32
	schedIssue []int32 // block -> non-empty issue groups of its schedule
	penalty    int64   // the machine's miss penalty
}

func newRefProfTables(f *ir.Func, d *machine.Desc) *refProfTables {
	return &refProfTables{
		blockSlots: make([][]int32, len(f.Blocks)),
		schedIssue: make([]int32, len(f.Blocks)),
		penalty:    int64(d.Cache.MissPenalty),
	}
}

// slotFor interns the (block, line) slot during predecode. Blocks hold
// a handful of distinct lines, so a linear scan beats a map.
func (t *refProfTables) slotFor(block int, line int32) int32 {
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
func (p *refProfState) reset(t *refProfTables, f *ir.Func) {
	p.refProfTables = t
	p.slotCounts = zeroed(p.slotCounts, len(t.slotLine)*prof.NumCauses)
	p.blockCounts = zeroed(p.blockCounts, len(f.Blocks)*prof.NumCauses)
	p.missReady = zeroed(p.missReady, f.NumRegs)
}

// charge attributes n cycles to an instruction slot (dynamic issue).
func (p *refProfState) charge(slot int32, c prof.Cause, n int64) {
	p.slotCounts[int(slot)*prof.NumCauses+int(c)] += n
}

// chargeBlock attributes n cycles to a block (static timing).
func (p *refProfState) chargeBlock(block int, c prof.Cause, n int64) {
	p.blockCounts[block*prof.NumCauses+int(c)] += n
}

// chargeStatic classifies a static block-entry charge exactly as
// execBlock computed it: issue cycles up to the schedule's bundle
// count, pipeline fill for a modulo-scheduled entry, and the rest as
// hazard stalls the static schedule exposes.
func (p *refProfState) chargeStatic(b *ir.Block, bt *BlockTiming, repeat bool, charged int64) {
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
func (p *refProfState) fold(f *ir.Func, m *Metrics, d *machine.Desc) *prof.Profile {
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
			shares := refApportion(total, slots, p.slotWeight)
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

// refApportion splits total across slots proportionally to their weights,
// exactly: shares sum to total, remainders go to the heaviest slots
// first (ties by slot order), so the split is deterministic.
func refApportion(total int64, slots []int32, weight []int64) []int64 {
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
