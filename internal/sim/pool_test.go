package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/prof"
	"slms/internal/sim"
	"slms/internal/source"
)

// poolCase is one artifact and its run in isolation.
type poolCase struct {
	name  string
	d     *machine.Desc
	pd    *sim.Predecoded
	setup func(*interp.Env)
	want  *sim.Metrics
	env   *interp.Env
}

// inputScalarKernel reads its scalar inputs before writing them, so a
// run state's stale ready time for their home registers would stall the
// first read on an in-order machine.
var inputScalarKernel = bench.Kernel{
	Name: "inputs",
	Source: `
		float A[64]; float s; int n;
		for (i = 0; i < n; i++) { s = s + A[i]; }
	`,
	Setup: func(env *interp.Env) {
		a := make([]float64, 64)
		for i := range a {
			a[i] = float64(i)
		}
		env.SetFloatArray("A", a)
		env.SetScalar("s", interp.FloatVal(1))
		env.SetScalar("n", interp.IntVal(64))
	},
}

// poolCases compiles kernels with few and with many registers, each
// before and after SLMS, for all four machines (four machine caches),
// and runs each artifact once from a state no other run has touched.
func poolCases(t *testing.T, profiled bool) []*poolCase {
	t.Helper()
	var cases []*poolCase
	regs := map[int]bool{}
	kernels := []bench.Kernel{inputScalarKernel}
	for _, k := range bench.Kernels() {
		if k.Name == "daxpy" || k.Name == "kernel10" {
			kernels = append(kernels, k)
		}
	}
	for _, k := range kernels {
		p, err := source.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		q, _, err := core.TransformProgram(p, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*machine.Desc{machine.IA64Like(), machine.Power4Like(), machine.PentiumLike(), machine.ARM7Like()} {
			for v, prog := range []*source.Program{p, q} {
				art, err := pipeline.CompileFor(prog, d, pipeline.StrongO3)
				if err != nil {
					t.Fatal(err)
				}
				regs[art.Func.NumRegs] = true
				c := &poolCase{
					name:  fmt.Sprintf("%s/%d/%s", k.Name, v, d.Name),
					d:     d,
					pd:    sim.Predecode(art.Func, d, art.Plan, profiled),
					setup: k.Setup,
					env:   interp.NewEnv(),
				}
				k.Setup(c.env)
				c.want, err = sim.PredecodeIsolated(art.Func, d, art.Plan, profiled).Run(c.env, 0)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				cases = append(cases, c)
			}
		}
	}
	if len(cases) != 24 || len(regs) < 2 {
		t.Fatalf("%d artifacts with %d register counts, want 24 with several", len(cases), len(regs))
	}
	return cases
}

// check runs c once through the shared pools and compares the run with
// the isolated one: metrics, profile and final environment.
func (c *poolCase) check() error {
	env := interp.NewEnv()
	c.setup(env)
	m, err := c.pd.Run(env, 0)
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	if !reflect.DeepEqual(m, c.want) {
		return fmt.Errorf("%s: metrics %v, isolated run %v", c.name, m, c.want)
	}
	if m.Profile != nil {
		if tot := m.Profile.Totals(); tot.Total() != m.Cycles {
			return fmt.Errorf("%s: profile totals %d cycles, run took %d", c.name, tot.Total(), m.Cycles)
		}
	}
	if !reflect.DeepEqual(env, c.env) {
		return fmt.Errorf("%s: final environment differs from the isolated run's", c.name)
	}
	return nil
}

// Run states are pooled per machine cache and shared by every function
// simulated on it. Runs of artifacts with different machines and
// register counts, interleaved across goroutines, must each equal the
// artifact's run from a fresh state: a state carries nothing from one
// run to the next.
func TestPooledRunStatesMatchIsolatedRuns(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("profiled=%v", profiled), func(t *testing.T) {
			prof.SetEnabled(profiled)
			defer prof.SetEnabled(false)
			cases := poolCases(t, profiled)
			for _, c := range cases {
				if profiled != (c.want.Profile != nil) {
					t.Fatalf("%s: profile present %v, want %v", c.name, c.want.Profile != nil, profiled)
				}
			}
			// Every artifact after every other of its machine, then all
			// of them interleaved across goroutines.
			for _, a := range cases {
				for _, b := range cases {
					if a.d.Name != b.d.Name {
						continue
					}
					if err := a.check(); err != nil {
						t.Fatal(err)
					}
					if err := b.check(); err != nil {
						t.Fatalf("after %s: %v", a.name, err)
					}
				}
			}
			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for range 2 {
						for _, i := range rng.Perm(len(cases)) {
							if err := cases[i].check(); err != nil {
								errs[g] = err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}
