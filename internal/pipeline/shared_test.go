package pipeline

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"slms/internal/backend"
	"slms/internal/interp"
	"slms/internal/memo"
	"slms/internal/source"
)

// sharedSpillSrc keeps more floats live at once than the eight float
// registers of arm7 and pentium hold, so compiling it for them spills
// and rewrites operands.
const sharedSpillSrc = `
	float A[40];
	for (i = 0; i < 40; i++) { A[i] = 0.1 * i; }
	float s = 0.0;
	for (i = 0; i < 28; i++) {
		t1 = A[i]; t2 = A[i+1]; t3 = A[i+2]; t4 = A[i+3];
		t5 = A[i+4]; t6 = A[i+5]; t7 = A[i+6]; t8 = A[i+7];
		t9 = A[i+8]; t10 = A[i+9]; t11 = A[i+10]; t12 = A[i+11];
		s = s + t1*t12 + t2*t11 + t3*t10 + t4*t9 + t5*t8 + t6*t7;
	}
`

// Every compile-stage miss of a program runs its back end over the one
// lowered function the lower stage holds. Compiling a spilling program
// for every machine × compiler at once must leave that function and its
// liveness as they were, and each artifact must time like an uncached
// compile of its own.
func TestCompilesNeverWriteTheSharedLoweredFunction(t *testing.T) {
	prog := source.MustParse(sharedSpillSrc)
	memo.SetEnabled(true)
	memo.Reset()
	t.Cleanup(memo.Reset)
	lw, err := lowerCached(prog)
	if err != nil {
		t.Fatal(err)
	}
	arrays := func() []string {
		var names []string
		for name := range lw.f.Arrays {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	dump, names, regTypes := lw.f.Dump(), arrays(), slices.Clone(lw.f.RegTypes)
	live := backend.NewLiveness(lw.f)

	type cell struct {
		m, c int
		art  *Artifact
		err  error
	}
	var cells []*cell
	for m := range allMachines() {
		for c := range allCompilers() {
			cells = append(cells, &cell{m: m, c: c})
		}
	}
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.art, c.err = CompileForCached(prog, allMachines()[c.m], allCompilers()[c.c])
		}()
	}
	wg.Wait()

	spilled := 0
	for _, c := range cells {
		if c.err != nil {
			t.Fatal(c.err)
		}
		spilled += c.art.Alloc.SpilledRegs
	}
	if spilled == 0 {
		t.Fatal("no compile spilled: the program no longer exercises the operand rewrite")
	}
	if got := lw.f.Dump(); got != dump {
		t.Errorf("the shared lowered function changed:\n%s\nwant:\n%s", got, dump)
	}
	if got := arrays(); !slices.Equal(got, names) {
		t.Errorf("the shared lowered function's arrays changed: %v, want %v", got, names)
	}
	if !slices.Equal(lw.f.RegTypes, regTypes) || lw.f.NumRegs != len(regTypes) {
		t.Errorf("the shared lowered function's registers changed: %d types, %d regs, want %d",
			len(lw.f.RegTypes), lw.f.NumRegs, len(regTypes))
	}
	if !reflect.DeepEqual(lw.live, live) {
		t.Error("the shared lowered function's liveness changed")
	}

	for _, c := range cells {
		d, cc := allMachines()[c.m], allCompilers()[c.c]
		fresh, err := CompileFor(prog, d, cc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.art.Predecoded(d, false).Run(interp.NewEnv(), 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Predecoded(d, false).Run(interp.NewEnv(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles {
			t.Errorf("%s/%s: cached artifact runs %d cycles, an uncached compile %d",
				d.Name, cc.Name, got.Cycles, want.Cycles)
		}
	}
}
