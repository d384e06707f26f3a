package sim

import (
	"sync"

	"slms/internal/ir"
	"slms/internal/machine"
)

// PredecodeIsolated is Predecode with a private pool of run states: its
// first run starts from a state no other run has touched.
func PredecodeIsolated(f *ir.Func, d *machine.Desc, plan *Plan, profiled bool) *Predecoded {
	pd := Predecode(f, d, plan, profiled)
	pd.states = &sync.Pool{New: func() any { return &runState{cache: newCache(d.Cache)} }}
	return pd
}

// RefRun is the reference decoder's run (ref_test.go), for the
// differential tests outside the package.
var RefRun = refRun
