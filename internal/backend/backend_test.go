package backend

import (
	"runtime/debug"
	"testing"

	"slms/internal/dep"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/source"
)

// compileBody compiles src and returns the function plus its innermost
// loop body block (nil if none).
func compileBody(t *testing.T, src string) (*ir.Func, *ir.Block) {
	t.Helper()
	f, err := Compile(source.MustParse(src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, b := range f.Blocks {
		if b.IsLoopBody {
			return f, b
		}
	}
	return f, nil
}

func TestCodegenMarksLoopBodies(t *testing.T) {
	_, body := compileBody(t, `
		float A[10];
		for (i = 0; i < 10; i++) { A[i] = i * 2.0; }
	`)
	if body == nil {
		t.Fatal("flat loop body not marked")
	}
	// A loop with control flow inside must not be marked.
	f, _ := compileBody(t, `
		float A[10];
		for (i = 0; i < 10; i++) {
			if (A[i] > 0.0) {
				A[i] = 0.0;
				A[i] = A[i] + 1.0;
			} else {
				A[i] = 1.0;
			}
		}
	`)
	for _, b := range f.Blocks {
		if b.IsLoopBody {
			t.Errorf("branchy loop body wrongly marked: block %d", b.ID)
		}
	}
}

func TestCodegenPredicatedSingleAssignStaysFlat(t *testing.T) {
	// `if (p) x = e;` must lower to a Select, keeping the body one block.
	f, body := compileBody(t, `
		float A[10];
		float mx = 0.0;
		bool p = false;
		for (i = 0; i < 10; i++) {
			p = mx < A[i];
			if (p) mx = A[i];
		}
	`)
	if body == nil {
		t.Fatalf("predicated body should stay flat:\n%s", f.Dump())
	}
	hasSelect := false
	for _, in := range body.Instrs {
		if in.Op == ir.Select {
			hasSelect = true
		}
	}
	if !hasSelect {
		t.Errorf("expected Select in predicated body:\n%s", f.Dump())
	}
}

func TestCodegenAffineTags(t *testing.T) {
	_, body := compileBody(t, `
		float A[64];
		for (i = 0; i < 60; i++) { A[i+2] = A[i] + 1.0; }
	`)
	if body == nil {
		t.Fatal("no loop body")
	}
	var load, store *ir.Instr
	for _, in := range body.Instrs {
		if in.Op == ir.Load && in.Arr == "A" {
			load = in
		}
		if in.Op == ir.Store && in.Arr == "A" {
			store = in
		}
	}
	if load == nil || store == nil {
		t.Fatal("missing load/store")
	}
	if !load.Tag.Valid || !store.Tag.Valid {
		t.Fatalf("tags missing: load=%+v store=%+v", load.Tag, store.Tag)
	}
	res, d := ir.TagDistance(store.Tag, load.Tag)
	// Store touches i+2; load at iteration i+d touches (i+d): equal when
	// d = 2.
	if d != 2 {
		t.Errorf("tag distance = %v,%d, want exact 2", res, d)
	}
}

func TestLocalCSERemovesDuplicateIndexMath(t *testing.T) {
	f, body := compileBody(t, `
		float A[64]; float B[64];
		for (i = 0; i < 60; i++) {
			A[i+1] = B[i+1] + B[i+1];
		}
	`)
	countAdds := func() int {
		n := 0
		for _, in := range body.Instrs {
			if in.Op == ir.Add && in.Type == source.TInt {
				n++
			}
		}
		return n
	}
	before := countAdds()
	removed := LocalCSE(f)
	after := countAdds()
	if removed == 0 || after >= before {
		t.Errorf("CSE removed %d, int adds %d -> %d", removed, before, after)
	}
}

func TestLocalCSEKillsOnRedefinition(t *testing.T) {
	// i+1 recomputed after i changes must NOT be deduped.
	f := &ir.Func{ScalarRegs: map[string]int{}, Arrays: map[string]*ir.ArrayInfo{}}
	ri := f.NewReg(source.TInt)
	r1 := f.NewReg(source.TInt)
	r2 := f.NewReg(source.TInt)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.Add, Type: source.TInt, Dst: r1, Args: []ir.Val{ir.R(ri), ir.ImmI(1)}},
		{Op: ir.Add, Type: source.TInt, Dst: ri, Args: []ir.Val{ir.R(ri), ir.ImmI(1)}}, // i changes
		{Op: ir.Add, Type: source.TInt, Dst: r2, Args: []ir.Val{ir.R(ri), ir.ImmI(1)}},
		{Op: ir.Halt},
	}
	LocalCSE(f)
	if b.Instrs[2].Op != ir.Add {
		t.Errorf("CSE wrongly deduped across redefinition:\n%s", f.Dump())
	}
}

func TestLocalCSENeverTouchesFloats(t *testing.T) {
	f := &ir.Func{ScalarRegs: map[string]int{}, Arrays: map[string]*ir.ArrayInfo{}}
	ra := f.NewReg(source.TFloat)
	r1 := f.NewReg(source.TFloat)
	r2 := f.NewReg(source.TFloat)
	b := f.NewBlock()
	b.Instrs = []*ir.Instr{
		{Op: ir.Add, Type: source.TFloat, Dst: r1, Args: []ir.Val{ir.R(ra), ir.ImmF(1)}},
		{Op: ir.Add, Type: source.TFloat, Dst: r2, Args: []ir.Val{ir.R(ra), ir.ImmF(1)}},
		{Op: ir.Halt},
	}
	if n := LocalCSE(f); n != 0 {
		t.Errorf("CSE touched float arithmetic (%d removed)", n)
	}
	if b.Instrs[1].Op != ir.Add {
		t.Error("float add rewritten")
	}
}

func TestListScheduleRespectsDepsAndResources(t *testing.T) {
	d := machine.IA64Like()
	_, body := compileBody(t, `
		float A[64]; float B[64]; float C[64];
		for (i = 0; i < 60; i++) {
			C[i] = A[i] * B[i] + 2.0;
		}
	`)
	s := ListSchedule(body, d, true, 0)
	// Dependences: every ordering constraint, not only the reduced DAG's
	// edges, must be separated by its latency.
	for _, e := range refBlockDeps(body.Instrs, d, true) {
		if s.CycleOf[e.to] < s.CycleOf[e.from]+int(e.lat) {
			t.Errorf("schedule violates edge %d->%d (lat %d): %d vs %d",
				e.from, e.to, e.lat, s.CycleOf[e.from], s.CycleOf[e.to])
		}
	}
	// Resources: count per cycle per unit.
	perCycle := map[int]map[machine.FU]int{}
	width := map[int]int{}
	for i, in := range body.Instrs {
		c := s.CycleOf[i]
		if perCycle[c] == nil {
			perCycle[c] = map[machine.FU]int{}
		}
		perCycle[c][machine.UnitOf(in)]++
		width[c]++
	}
	for c, fus := range perCycle {
		if width[c] > d.IssueWidth {
			t.Errorf("cycle %d exceeds issue width: %d", c, width[c])
		}
		for fu, n := range fus {
			if n > d.Units[fu] {
				t.Errorf("cycle %d exceeds %v units: %d", c, fu, n)
			}
		}
	}
}

func TestWindowLimitsLookahead(t *testing.T) {
	d := machine.IA64Like()
	_, body := compileBody(t, `
		float A[64]; float B[64]; float C[64]; float D[64];
		for (i = 0; i < 60; i++) {
			A[i] = A[i] * 2.0;
			B[i] = B[i] * 2.0;
			C[i] = C[i] * 2.0;
			D[i] = D[i] * 2.0;
		}
	`)
	wide := ListSchedule(body, d, true, 0)
	narrow := ListSchedule(body, d, true, 2)
	if narrow.Len < wide.Len {
		t.Errorf("window-2 schedule shorter than unbounded: %d < %d", narrow.Len, wide.Len)
	}
}

func TestSequentialScheduleInOrder(t *testing.T) {
	d := machine.PentiumLike()
	_, body := compileBody(t, `
		float A[64]; float B[64];
		for (i = 0; i < 60; i++) { B[i] = A[i] * 2.0 + 1.0; }
	`)
	s := SequentialSchedule(body, d)
	for i := 1; i < len(body.Instrs); i++ {
		if s.CycleOf[i] < s.CycleOf[i-1] {
			t.Errorf("in-order schedule goes backwards at %d", i)
		}
	}
	if s.Len <= 0 || s.SteadyLen < s.Len {
		t.Errorf("bad lengths: %+v", s)
	}
}

func TestCarriedStallOnRecurrence(t *testing.T) {
	// An accumulator whose fadd result feeds the next iteration: steady
	// length must cover the fadd latency.
	d := machine.IA64Like()
	_, body := compileBody(t, `
		float A[64];
		float s = 0.0;
		for (i = 0; i < 60; i++) { s = s + A[i]; }
	`)
	sch := ListSchedule(body, d, true, 0)
	if sch.SteadyLen < d.Lat.FloatOp {
		t.Errorf("steady length %d hides the carried fadd latency %d", sch.SteadyLen, d.Lat.FloatOp)
	}
}

func TestAllocateNoSpillsOnBigFile(t *testing.T) {
	f, _ := compileBody(t, `
		float A[64];
		float s = 0.0;
		for (i = 0; i < 60; i++) { s += A[i] * 2.0; }
	`)
	res := Allocate(f, machine.IA64Like())
	if res.SpilledRegs != 0 {
		t.Errorf("unexpected spills: %+v", res)
	}
}

func TestAllocateSpillsAndKeepsSemantics(t *testing.T) {
	// Semantics after spilling are covered end-to-end in the pipeline
	// tests; here we check the bookkeeping.
	src := `
		float A[64];
		float s = 0.0;
		for (i = 0; i < 40; i++) {
			a1 = A[i]; a2 = A[i+1]; a3 = A[i+2]; a4 = A[i+3]; a5 = A[i+4];
			a6 = A[i+5]; a7 = A[i+6]; a8 = A[i+7]; a9 = A[i+8]; a10 = A[i+9];
			s = s + a1*a10 + a2*a9 + a3*a8 + a4*a7 + a5*a6;
		}
	`
	f, err := Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	res := Allocate(f, machine.PentiumLike())
	if res.SpilledRegs == 0 || res.SpillLoads == 0 || res.SpillStores == 0 {
		t.Fatalf("expected spills on 8-register machine: %+v", res)
	}
	if f.Arrays[SpillArray] == nil || f.Arrays[SpillArray].StaticLen < res.SpilledRegs {
		t.Errorf("spill array misconfigured: %+v", f.Arrays[SpillArray])
	}
	// Branches must still terminate their blocks.
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op.IsBranch() && i != len(b.Instrs)-1 {
				t.Errorf("branch not last in block %d:\n%s", b.ID, f.Dump())
			}
		}
	}
}

func TestMemConflictWeakVsStrong(t *testing.T) {
	a := &ir.Instr{Op: ir.Store, Arr: "A",
		Tag: ir.AffineTag{Valid: true, LoopID: 1, Dims: []dep.Affine{{Coeff: 1, Const: 0, OK: true}}}}
	b := &ir.Instr{Op: ir.Load, Arr: "A",
		Tag: ir.AffineTag{Valid: true, LoopID: 1, Dims: []dep.Affine{{Coeff: 1, Const: 2, OK: true}}}}
	// Weak compiler: same array ⇒ ordered.
	if !memConflict(a, b, false) {
		t.Error("weak compiler must keep same-array accesses ordered")
	}
	// Strong compiler: A[i] vs A[i+2] never collide within one iteration.
	if memConflict(a, b, true) {
		t.Error("strong compiler should disambiguate constant-offset accesses")
	}
	c := &ir.Instr{Op: ir.Load, Arr: "B"}
	if memConflict(a, c, false) {
		t.Error("distinct arrays never alias")
	}
}

// Registers are numbered function-wide, so a small block of a large
// program mentions high register numbers. Scheduling it must cost what
// the block holds: once the pooled scratch is warm, the schedulers
// allocate only the BlockSched and its CycleOf they return.
func TestBlockSchedulingCostIgnoresRegisterNumbers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	d := machine.IA64Like()
	b := &ir.Block{Instrs: []*ir.Instr{
		{Op: ir.Load, Type: source.TFloat, Dst: 5000, Args: []ir.Val{ir.R(4998)}, Arr: "A"},
		{Op: ir.Add, Type: source.TFloat, Dst: 5001, Args: []ir.Val{ir.R(5000), ir.R(4999)}},
		{Op: ir.Store, Type: source.TFloat, Dst: -1, Args: []ir.Val{ir.R(4998), ir.R(5001)}, Arr: "A"},
	}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"SequentialSchedule", 2, func() { SequentialSchedule(b, d) }},
		{"ListSchedule", 2, func() { ListSchedule(b, d, true, 0) }},
		{"ListSchedule/window", 2, func() { ListSchedule(b, d, false, 2) }},
		{"ListCycles", 1, func() { ListCycles(b, d, true, 0) }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got > c.want {
			t.Errorf("%s allocates %.0f objects per call, want %.0f", c.name, got, c.want)
		}
	}
}
