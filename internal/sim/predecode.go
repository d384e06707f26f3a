package sim

import (
	"context"
	"sync"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
)

// Predecoded is the shared, immutable predecode of one (function,
// machine, plan) triple: every instruction's machine attributes
// (energy, latency, functional unit), the array-binding table layout,
// and — when built for profiling — the profiler's slot interning. One
// Predecoded serves any number of runs, concurrently. It holds no
// per-run state: a run takes its register file, array bindings and L1
// tags from the process-wide pool of the machine's cache, so
// simulation allocates almost nothing beyond its Metrics, and the
// working memory follows the runs in flight, not the artifacts built.
//
// Build one with Predecode; run it with Run/RunCtx.
type Predecoded struct {
	f    *ir.Func
	d    *machine.Desc
	plan *Plan

	info     [][]instrInfo  // per block, parallel to Instrs
	defs     []arrayBinding // binding template: storage fields zero
	profiled bool
	tables   *profTables // non-nil iff profiled
	states   *sync.Pool  // run states of d's cache
}

// runState is the pooled per-run mutable half of a simulation. It grows
// to the largest function it has served; a run uses and clears only the
// prefix its function needs.
type runState struct {
	regs     []value
	regReady []int64
	bindings []arrayBinding
	cache    *cache
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

// Predecode resolves every instruction's machine attributes and assigns
// array-binding slots, hoisting all name-keyed map lookups out of the
// execution loop. profiled selects whether runs of the result attribute
// cycles: every run of the result is in that mode (the profiler's slot
// tables are part of the predecode, so the two modes predecode
// separately).
func Predecode(f *ir.Func, d *machine.Desc, plan *Plan, profiled bool) *Predecoded {
	pd := &Predecoded{f: f, d: d, plan: plan, profiled: profiled, states: statePool(d.Cache)}
	if profiled {
		pd.tables = newProfTables(f, d)
	}
	byName := make(map[string]int32, len(f.Arrays))
	pd.info = make([][]instrInfo, len(f.Blocks))
	for _, b := range f.Blocks {
		infos := make([]instrInfo, len(b.Instrs))
		for i, in := range b.Instrs {
			ii := instrInfo{
				energy: d.OpEnergy(in),
				lat:    int64(d.Latency(in)),
				fu:     uint8(machine.UnitOf(in)),
				mem:    -1,
			}
			if in.Op == ir.Load || in.Op == ir.Store {
				id, ok := byName[in.Arr]
				if !ok {
					id = int32(len(pd.defs))
					byName[in.Arr] = id
					pd.defs = append(pd.defs, arrayBinding{
						name:    in.Arr,
						ai:      f.Arrays[in.Arr],
						isSpill: in.Arr == backend.SpillArray,
					})
				}
				ii.mem = id
			}
			if pd.tables != nil {
				ii.slot = pd.tables.slotFor(b.ID, in.Line)
			}
			infos[i] = ii
		}
		pd.info[b.ID] = infos
		if pd.tables != nil && plan != nil {
			if bt := &plan.Blocks[b.ID]; bt.Sched != nil {
				pd.tables.schedIssue[b.ID] = int32(bt.Sched.Bundles)
			}
		}
	}
	return pd
}

// getState takes a run state from the cache's pool and readies it
// for pd's function: registers and ready times zeroed over the
// function's registers, bindings templated, cache emptied. Backing
// storage is reused across runs and functions.
func (pd *Predecoded) getState() *runState {
	st := pd.states.Get().(*runState)
	st.regs = zeroed(st.regs, pd.f.NumRegs)
	st.regReady = zeroed(st.regReady, pd.f.NumRegs)
	st.bindings = append(st.bindings[:0], pd.defs...)
	st.cache.reset()
	return st
}

// putState returns st to its pool, dropping the run's array bindings so
// a pooled state keeps no environment alive.
func (pd *Predecoded) putState(st *runState) {
	clear(st.bindings)
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
	s := &simulator{
		f: pd.f, d: pd.d, plan: pd.plan, env: env,
		regs:     st.regs,
		cache:    st.cache,
		m:        &Metrics{ExecCounts: make([]int64, len(pd.f.Blocks))},
		limit:    maxInstrs,
		info:     pd.info,
		bindings: st.bindings,
		regReady: st.regReady,
	}
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
		s.nextCtxCheck = ctxCheckInterval
	}
	if pd.profiled {
		s.pr = newProfState(pd.tables, pd.f)
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
	s.m.Energy += pd.d.Energy.Static * float64(s.m.Cycles)
	if s.pr != nil {
		s.m.Profile = s.pr.fold(f, s.m, pd.d)
	}
	simRuns.Add(1)
	simCycles.Add(s.m.Cycles)
	simInstrs.Add(s.m.Instrs)
	pd.putState(st)
	return s.m, nil
}
