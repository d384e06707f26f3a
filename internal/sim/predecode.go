package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/source"
)

// Predecoded is the shared, immutable predecode of one (function,
// machine, plan) triple: every block as a flat micro-op table whose
// operands are register-file slots, the immediates as constant slots,
// the array-binding table layout, and — when built for profiling — the
// profiler's slot interning. One Predecoded serves any number of runs,
// concurrently. It holds no per-run state: a run takes its register
// file, array bindings and L1 tags from the process-wide pool of the
// machine's cache, so simulation allocates almost nothing beyond its
// Metrics, and the working memory follows the runs in flight, not the
// artifacts built.
//
// Build one with Predecode; run it with Run/RunCtx.
type Predecoded struct {
	f    *ir.Func
	d    *machine.Desc
	plan *Plan

	code     []uop          // every block's micro-ops, blocks in ID order
	start    []int32        // block ID -> first micro-op; start[len] = len(code)
	consts   []value        // register slots NumRegs..: the zero slot, then the immediates
	defs     []arrayBinding // binding template: storage fields zero
	profiled bool
	tables   *profTables // non-nil iff profiled
	states   *sync.Pool  // run states of d's cache
}

// uop is one predecoded instruction. It is pointer-free and 28 bytes:
// the opcode (with the operand type folded in), the result type, unit
// and latency, the destination and up to three operand slots (all
// indices into the one register file, immediates included), one
// opcode-dependent field — the array binding of a load or store, the
// target of a branch, or the intrinsic of a call — and the profiler
// slot.
type uop struct {
	op      uopCode
	typ     vtag  // result type: Mov, Select, Load and Call coerce to it
	fu      uint8 // machine.FU
	lat     uint8 // cycles until the result is usable
	dst     int32 // destination register, -1 for none
	a, b, c int32 // operand slots; an absent operand reads the zero slot
	aux     int32
	slot    int32 // profiler (block, line) slot; valid only when profiling
}

// maxLatency is the longest operation latency a micro-op holds.
const maxLatency = math.MaxUint8

// uopCode is a micro-op opcode: an ir.Op resolved against its operation
// type, so the execution loop dispatches once per instruction.
type uopCode uint8

const (
	uNop uopCode = iota
	uMov         // Mov and Cvt: coerce a to typ
	// Arithmetic: integer for every non-float type, then float.
	uAddI
	uSubI
	uMulI
	uDivI
	uModI
	uNegI
	uAddF
	uSubF
	uMulF
	uDivF
	uModF
	uNegF
	// Comparisons: integer; float (float and untyped operands); bool.
	uLTI
	uLEI
	uGTI
	uGEI
	uEQI
	uNEI
	uLTF
	uLEF
	uGTF
	uGEF
	uEQF
	uNEF
	uEQB
	uNEB
	uAnd
	uOr
	uNot
	uSelect // a ? b : c, coerced to typ
	uLoad   // aux = array binding
	uStore  // aux = array binding
	uCall   // aux = intrinsic
	uBr     // aux = target block
	uBrTrue
	uBrFalse
	uHalt
	uBad // fails when executed (see failure)
)

// cmpOps maps the six comparisons, in ir order from CmpLT, onto their
// integer, float and bool micro-ops (0: no bool form).
var cmpOps = [6][3]uopCode{
	{uLTI, uLTF, 0}, {uLEI, uLEF, 0}, {uGTI, uGTF, 0},
	{uGEI, uGEF, 0}, {uEQI, uEQF, uEQB}, {uNEI, uNEF, uNEB},
}

// intrinsics are the math intrinsics a call resolves to at predecode:
// uop.aux indexes the table. Each takes its first one or two arguments.
var intrinsics = []struct {
	name string
	fn   func(x, y float64) float64
}{
	{"abs", func(x, _ float64) float64 { return math.Abs(x) }},
	{"sqrt", func(x, _ float64) float64 { return math.Sqrt(x) }},
	{"exp", func(x, _ float64) float64 { return math.Exp(x) }},
	{"log", func(x, _ float64) float64 { return math.Log(x) }},
	{"sin", func(x, _ float64) float64 { return math.Sin(x) }},
	{"cos", func(x, _ float64) float64 { return math.Cos(x) }},
	{"pow", math.Pow},
	{"min", math.Min},
	{"max", math.Max},
	{"sign", func(x, y float64) float64 { return math.Copysign(math.Abs(x), y) }},
	{"mod", math.Mod},
}

// runState is the pooled per-run mutable half of a simulation. It grows
// to the largest function it has served; a run uses and clears only the
// prefix its function needs. prof is readied only for a profiled run.
type runState struct {
	regs     []value // registers, the zero slot, then the constants
	regReady []int64
	missed   []bool // in-order: the register's pending value waits on an L1 miss
	bindings []arrayBinding
	cache    *cache
	prof     profState
}

// statePools maps a machine cache to the pool of run states whose L1
// model it shapes: one pool per machine cache, shared by every function
// simulated on it.
var statePools sync.Map // machine.Cache -> *sync.Pool

// statePool returns the pool of run states for c.
func statePool(c machine.Cache) *sync.Pool {
	if p, ok := statePools.Load(c); ok {
		return p.(*sync.Pool)
	}
	p, _ := statePools.LoadOrStore(c, &sync.Pool{New: func() any {
		return &runState{cache: newCache(c)}
	}})
	return p.(*sync.Pool)
}

// Predecode resolves every instruction into a micro-op and assigns
// array-binding and constant slots, hoisting every name-keyed lookup
// and operand decode out of the execution loop. profiled selects
// whether runs of the result attribute cycles: every run of the result
// is in that mode (the profiler's slot tables are part of the
// predecode, so the two modes predecode separately).
//
// A block's micro-ops end at its first branch or halt: nothing after
// one executes, so a run counts a block's instructions on entry.
func Predecode(f *ir.Func, d *machine.Desc, plan *Plan, profiled bool) *Predecoded {
	pd := &Predecoded{f: f, d: d, plan: plan, profiled: profiled, states: statePool(d.Cache)}
	if profiled {
		pd.tables = newProfTables(f, d)
	}
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	pd.code = make([]uop, 0, n)
	pd.start = make([]int32, len(f.Blocks)+1)
	pd.defs = make([]arrayBinding, 0, len(f.Arrays))
	// The constants collect in a stack buffer and are copied out once at
	// their final count.
	var buf [32]value
	consts := append(buf[:0], value{}) // the zero slot
	for _, b := range f.Blocks {
		pd.start[b.ID] = int32(len(pd.code))
		ended := false
		for _, in := range b.Instrs {
			var slot int32
			if pd.tables != nil {
				slot = pd.tables.slotFor(b.ID, in.Line)
			}
			if ended {
				continue
			}
			var u uop
			u, consts = pd.decode(in, consts)
			u.slot = slot
			pd.code = append(pd.code, u)
			ended = in.Op.IsBranch()
		}
		if pd.tables != nil && plan != nil {
			if bt := &plan.Blocks[b.ID]; bt.Sched != nil {
				pd.tables.schedIssue[b.ID] = int32(bt.Sched.Bundles)
			}
		}
	}
	pd.start[len(f.Blocks)] = int32(len(pd.code))
	pd.consts = slices.Clone(consts)
	if pd.tables != nil {
		pd.tables.finish(f)
	}
	return pd
}

// decode resolves one instruction into its micro-op.
// consts is the constant table so far; decode returns it extended by
// the instruction's new immediates.
func (pd *Predecoded) decode(in *ir.Instr, consts []value) (uop, []value) {
	lat := pd.d.Latency(in)
	if lat < 0 || lat > maxLatency {
		panic(fmt.Sprintf("sim: %s: a latency of %d cycles is outside [0, %d]", pd.d.Name, lat, maxLatency))
	}
	u := uop{
		typ: vtag(in.Type),
		fu:  uint8(machine.UnitOf(in)),
		lat: uint8(lat),
		dst: int32(in.Dst),
	}
	slots := [3]*int32{&u.a, &u.b, &u.c}
	for k := range slots {
		*slots[k] = int32(pd.f.NumRegs) // the zero slot
		if k < len(in.Args) {
			*slots[k], consts = pd.operand(in.Args[k], consts)
		}
	}
	isFloat := in.Type == source.TFloat
	switch op := in.Op; op {
	case ir.Nop:
		u.op = uNop
	case ir.Mov, ir.Cvt:
		u.op = uMov
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
		u.op = uAddI + uopCode(op-ir.Add)
		if isFloat {
			u.op = uAddF + uopCode(op-ir.Add)
		}
	case ir.Neg:
		u.op = uNegI
		if isFloat {
			u.op = uNegF
		}
	case ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE, ir.CmpEQ, ir.CmpNE:
		forms := cmpOps[op-ir.CmpLT]
		switch in.Type {
		case source.TBool:
			u.op = forms[2]
			if u.op == 0 {
				u.op = uBad
			}
		case source.TInt:
			u.op = forms[0]
		default:
			u.op = forms[1]
		}
	case ir.And:
		u.op = uAnd
	case ir.Or:
		u.op = uOr
	case ir.Not:
		u.op = uNot
	case ir.Select:
		u.op = uSelect
	case ir.Load, ir.Store:
		u.op = uLoad
		if op == ir.Store {
			u.op = uStore
		}
		u.aux = pd.binding(in.Arr)
	case ir.Call:
		u.op = uBad
		name := strings.ToLower(in.Fn)
		for k, fn := range intrinsics {
			if fn.name == name {
				u.op, u.aux = uCall, int32(k)
			}
		}
	case ir.Br, ir.BrTrue, ir.BrFalse:
		u.op = uBr + uopCode(op-ir.Br)
		u.aux = int32(in.Target)
	case ir.Halt:
		u.op = uHalt
	default:
		u.op = uBad
	}
	return u, consts
}

// failure is the error of the instruction a uBad micro-op stands for:
// a program may hold an instruction the simulator cannot run on a path
// it never takes, so it fails only when executed.
func failure(in *ir.Instr) error {
	switch in.Op {
	case ir.Call:
		return fmt.Errorf("sim: unknown intrinsic %q", in.Fn)
	case ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		return fmt.Errorf("sim: ordered comparison of bools")
	}
	return fmt.Errorf("sim: cannot execute %v", in.Op)
}

// operand returns a's register-file slot — its register, or the
// constant slot of its immediate (equal immediates share one; floats
// compare by bits, so -0 and 0 stay apart).
func (pd *Predecoded) operand(a ir.Val, consts []value) (int32, []value) {
	var v value
	switch a.Kind {
	case ir.KReg:
		return int32(a.Reg), consts
	case ir.KInt:
		v = value{t: tagInt, i: a.I}
	case ir.KFloat:
		v = value{t: tagFloat, f: a.F}
	default:
		v = value{t: tagBool, b: a.B}
	}
	for k, c := range consts {
		if c.t == v.t && c.i == v.i && c.b == v.b && math.Float64bits(c.f) == math.Float64bits(v.f) {
			return int32(pd.f.NumRegs + k), consts
		}
	}
	return int32(pd.f.NumRegs + len(consts)), append(consts, v)
}

// binding returns the array-binding slot of name, assigning one on
// first use.
func (pd *Predecoded) binding(name string) int32 {
	for k := range pd.defs {
		if pd.defs[k].name == name {
			return int32(k)
		}
	}
	pd.defs = append(pd.defs, arrayBinding{
		name:  name,
		ai:    pd.f.Arrays[name],
		spill: b2i(name == backend.SpillArray),
	})
	return int32(len(pd.defs) - 1)
}

// getState takes a run state from the cache's pool and readies it
// for pd's function: registers and ready times zeroed over the
// function's registers, constants loaded, bindings templated, cache
// emptied. Backing storage is reused across runs and functions.
func (pd *Predecoded) getState() *runState {
	st := pd.states.Get().(*runState)
	nregs := pd.f.NumRegs
	slots := nregs + len(pd.consts)
	st.regs = zeroed(st.regs, slots)
	copy(st.regs[nregs:], pd.consts)
	st.regReady = zeroed(st.regReady, slots)
	st.missed = zeroed(st.missed, slots)
	st.bindings = append(st.bindings[:0], pd.defs...)
	st.cache.reset()
	if pd.profiled {
		st.prof.reset(pd.tables, pd.f)
	}
	return st
}

// putState returns st to its pool, dropping the run's array bindings
// and profiler tables so a pooled state keeps no environment or
// predecode alive.
func (pd *Predecoded) putState(st *runState) {
	clear(st.bindings)
	st.prof.profTables = nil
	pd.states.Put(st)
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

// Run simulates the predecoded program, reading inputs from and writing
// results back to env. maxInstrs guards against runaway loops (0 =
// 500M). A run of a profiled predecode fills Metrics.Profile; a run of
// a plain one does not.
func (pd *Predecoded) Run(env *interp.Env, maxInstrs int64) (*Metrics, error) {
	return pd.RunCtx(context.Background(), env, maxInstrs)
}

// RunCtx is Run honoring a context: the execution loop checks ctx every
// ctxCheckInterval instructions and aborts with an error wrapping
// ctx.Err() (so errors.Is(err, context.DeadlineExceeded) works) when the
// deadline passes or the caller cancels. A context.Background() call is
// identical to Run.
func (pd *Predecoded) RunCtx(ctx context.Context, env *interp.Env, maxInstrs int64) (*Metrics, error) {
	if maxInstrs == 0 {
		maxInstrs = 500_000_000
	}
	st := pd.getState()
	d := pd.d
	s := &simulator{
		pd: pd, env: env,
		regs:     st.regs,
		regReady: st.regReady,
		missed:   st.missed,
		bindings: st.bindings,
		cache:    st.cache,
		m:        &Metrics{ExecCounts: make([]int64, len(pd.f.Blocks))},
		limit:    maxInstrs,
		inOrder:  d.Policy == machine.InOrder,
		energy: [4]float64{
			machine.FUInt: d.Energy.IntOp, machine.FUFloat: d.Energy.FloatOp,
			machine.FUMem: d.Energy.Mem, machine.FUBranch: d.Energy.Branch,
		},
		width:     int32(d.IssueWidth),
		branchLat: int64(d.Lat.Branch),
		penalty:   int64(d.Cache.MissPenalty),
	}
	for k, n := range d.Units {
		s.units[k] = int32(n)
	}
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
		s.nextCtxCheck = ctxCheckInterval
	}
	if pd.profiled {
		s.pr = &st.prof
	}
	// Seed scalar home registers from the environment.
	f := pd.f
	for name, r := range f.ScalarRegs {
		if v, ok := env.Scalars[name]; ok {
			s.regs[r] = fromInterp(v)
		} else {
			s.regs[r] = value{t: vtag(f.RegTypes[r])}
		}
	}
	err := s.run()
	if err != nil {
		pd.putState(st)
		return nil, err
	}
	// Write scalars back.
	for name, r := range f.ScalarRegs {
		env.Scalars[name] = toInterp(s.regs[r], f.RegTypes[r])
	}
	s.m.Energy += d.Energy.Static * float64(s.m.Cycles)
	if s.pr != nil {
		s.m.Profile = s.pr.fold(f, s.m, d)
	}
	var blocks int64
	for _, n := range s.m.ExecCounts {
		blocks += n
	}
	simRuns.Add(1)
	simCycles.Add(s.m.Cycles)
	simInstrs.Add(s.m.Instrs)
	simBlocks.Add(blocks)
	simStalls.Add(s.stalls)
	simMisses.Add(s.m.CacheMiss)
	pd.putState(st)
	return s.m, nil
}
