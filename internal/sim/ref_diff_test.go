package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"slms/internal/backend"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/interp"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/pipeline"
	"slms/internal/sim"
	"slms/internal/source"
)

// Every extended-corpus kernel, on all four machines under the weak and
// strong -O3 and the weak -O0 compilers, for the base program and its
// MVE and scalar-expansion SLMS legs, plain and profiled: the micro-op
// core's run equals the reference decoder's bit for bit — metrics,
// energy bits, profile and final environment.
func TestMicroOpsMatchReference(t *testing.T) {
	machines := []*machine.Desc{machine.IA64Like(), machine.Power4Like(), machine.PentiumLike(), machine.ARM7Like()}
	compilers := []pipeline.Compiler{pipeline.WeakO3, pipeline.StrongO3, pipeline.WeakNoO3}
	runs := 0
	for _, k := range bench.KernelsExtended() {
		p, err := source.Parse(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		legs := map[string]*source.Program{"base": p}
		for name, mode := range map[string]core.ExpandMode{"mve": core.ExpandMVE, "scalar": core.ExpandScalar} {
			o := core.DefaultOptions()
			o.Expansion = mode
			q, _, err := core.TransformProgram(p, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", k.Name, name, err)
			}
			legs[name] = q
		}
		for _, d := range machines {
			for _, cc := range compilers {
				for leg, prog := range legs {
					art, err := pipeline.CompileFor(prog, d, cc)
					if err != nil {
						t.Fatalf("%s/%s/%s/%s: %v", k.Name, leg, d.Name, cc.Name, err)
					}
					for _, profiled := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/%s/profiled=%v", k.Name, leg, d.Name, cc.Name, profiled)
						if err := matchReference(art.Func, d, art.Plan, profiled, k.Setup, 0); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						runs++
					}
				}
			}
		}
	}
	if runs < 4*3*3*2*len(bench.Kernels()) {
		t.Fatalf("compared %d runs, want every kernel's", runs)
	}
}

// matchReference runs f on d under plan with both cores from the same
// inputs and reports the first difference.
func matchReference(f *ir.Func, d *machine.Desc, plan *sim.Plan, profiled bool, setup func(*interp.Env), maxInstrs int64) error {
	env, refEnv := interp.NewEnv(), interp.NewEnv()
	if setup != nil {
		setup(env)
		setup(refEnv)
	}
	m, err := sim.PredecodeIsolated(f, d, plan, profiled).Run(env, maxInstrs)
	want, wantErr := sim.RefRun(f, d, plan, profiled, refEnv, maxInstrs)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return nil
	}
	if math.Float64bits(m.Energy) != math.Float64bits(want.Energy) {
		return fmt.Errorf("energy %x, reference %x", math.Float64bits(m.Energy), math.Float64bits(want.Energy))
	}
	if !reflect.DeepEqual(m, want) {
		return fmt.Errorf("metrics %v %+v, reference %v %+v", m, m.Profile, want, want.Profile)
	}
	if !sameEnv(env, refEnv) {
		return fmt.Errorf("final environment differs from the reference's")
	}
	return nil
}

// sameEnv compares two environments bit for bit (NaN payloads and
// signed zeros included).
func sameEnv(a, b *interp.Env) bool {
	if len(a.Scalars) != len(b.Scalars) || len(a.Arrays) != len(b.Arrays) {
		return false
	}
	for name, v := range a.Scalars {
		w, ok := b.Scalars[name]
		if !ok || v.T != w.T || v.I != w.I || v.B != w.B || math.Float64bits(v.F) != math.Float64bits(w.F) {
			return false
		}
	}
	for name, x := range a.Arrays {
		y, ok := b.Arrays[name]
		if !ok || x.Type != y.Type || !reflect.DeepEqual(x.Dims, y.Dims) ||
			!reflect.DeepEqual(x.I, y.I) || len(x.F) != len(y.F) {
			return false
		}
		for i := range x.F {
			if math.Float64bits(x.F[i]) != math.Float64bits(y.F[i]) {
				return false
			}
		}
	}
	return true
}

// The failing runs end with the reference's error text: an index out
// of range, integer division and modulo by zero, an instruction limit
// at every point of a run (the micro-op core counts a block on entry),
// an unknown intrinsic and an ordered comparison of bools.
func TestMicroOpErrorsMatchReference(t *testing.T) {
	compile := func(src string) *ir.Func {
		t.Helper()
		f, err := backend.Compile(source.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	zeroN := func(env *interp.Env) { env.SetScalar("n", interp.IntVal(0)) }
	withCall := func(fn string) *ir.Func {
		f := compile(`float x = 2.0; float y = sqrt(x);`)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.Call {
					in.Fn = fn
				}
			}
		}
		return f
	}
	boolCmp := compile(`bool p = true; bool q = false; bool r = p == q;`)
	for _, b := range boolCmp.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.CmpEQ {
				in.Op = ir.CmpLT
			}
		}
	}
	loop := compile(`
		float A[16]; float s = 0.0; int n = 16;
		for (i = 0; i < n; i++) { s = s + A[i] * 2.0; A[i] = s; }
	`)
	cases := []struct {
		name  string
		f     *ir.Func
		setup func(*interp.Env)
		want  string
	}{
		{"range", compile(`float A[4]; x = A[10];`), nil, "sim: A[10] out of range [0,4)"},
		{"div", compile(`int n; int m = 10 / n;`), zeroN, "sim: integer division by zero"},
		{"mod", compile(`int n; int m = 10 % n;`), zeroN, "sim: integer modulo by zero"},
		{"intrinsic", withCall("nosuch"), nil, `sim: unknown intrinsic "nosuch"`},
		{"intrinsic-case", withCall("SQRT"), nil, ""},
		{"bool-order", boolCmp, nil, "sim: ordered comparison of bools"},
		{"limit", compile(`int i = 0; while (true) { i = i + 1; }`), nil, "sim: instruction limit exceeded (runaway loop?)"},
	}
	for _, c := range cases {
		for _, d := range []*machine.Desc{machine.IA64Like(), machine.PentiumLike()} {
			for _, profiled := range []bool{false, true} {
				_, err := sim.PredecodeIsolated(c.f, d, nil, profiled).Run(interp.NewEnv(), 1000)
				if c.setup != nil {
					env := interp.NewEnv()
					c.setup(env)
					_, err = sim.PredecodeIsolated(c.f, d, nil, profiled).Run(env, 1000)
				}
				if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
					t.Errorf("%s on %s: error %q, want %q", c.name, d.Name, got, c.want)
				}
				if err := matchReference(c.f, d, nil, profiled, c.setup, 1000); err != nil {
					t.Errorf("%s on %s: %v", c.name, d.Name, err)
				}
			}
		}
	}
	// A limit anywhere in a run, block boundaries and block interiors
	// alike, fails or completes exactly as the reference does.
	var total int64
	if m, err := sim.Predecode(loop, machine.ARM7Like(), nil, false).Run(interp.NewEnv(), 0); err != nil {
		t.Fatal(err)
	} else {
		total = m.Instrs
	}
	for limit := int64(1); limit <= total+1; limit++ {
		for _, profiled := range []bool{false, true} {
			if err := matchReference(loop, machine.ARM7Like(), nil, profiled, nil, limit); err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
		}
	}
}

// A plain run's allocations do not grow with the calls it executes:
// the intrinsic is resolved at predecode and its arguments are read
// from the register file.
func TestCallsDoNotAllocate(t *testing.T) {
	allocs := func(n int) float64 {
		f, err := backend.Compile(source.MustParse(fmt.Sprintf(`
			float s = 0.0;
			for (i = 0; i < %d; i++) { s = s + sqrt(i * 1.0) + pow(s, 0.5); }
		`, n)))
		if err != nil {
			t.Fatal(err)
		}
		pd := sim.Predecode(f, machine.PentiumLike(), nil, false)
		return testing.AllocsPerRun(20, func() {
			if _, err := pd.Run(interp.NewEnv(), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(4), allocs(400)
	if many > few {
		t.Errorf("a run of 800 calls allocates %.0f times, one of 8 calls %.0f", many, few)
	}
}
