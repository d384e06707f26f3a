package sched_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/sched/exact"
)

func testMachine(intU, fpU, memU, iw int) *machine.Desc {
	return &machine.Desc{
		Name:       "test",
		IssueWidth: iw,
		Units:      [4]int{intU, fpU, memU, 1},
		Lat:        machine.Lat{IntOp: 1, FloatOp: 1, Load: 1, Store: 1, Branch: 1},
		IntRegs:    64, FPRegs: 64,
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 2}, {FU: machine.FUInt, Lat: 1}},
		Edges: []sched.Edge{{From: 0, To: 1, Dist: 0, Lat: 2}},
	}
	ok := &sched.Schedule{II: 2, Time: []int{0, 3}} // rows 0 and 1 on the 1-unit machine
	if err := sched.Check(g, d, ok); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	for name, s := range map[string]*sched.Schedule{
		"nil":           nil,
		"bad II":        {II: 0, Time: []int{0, 2}},
		"short":         {II: 2, Time: []int{0}},
		"edge violated": {II: 2, Time: []int{0, 1}},
	} {
		if err := sched.Check(g, d, s); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	// Row overflow: two int ops sharing row 0 of a 1-int-unit machine.
	g2 := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}}}
	if err := sched.Check(g2, d, &sched.Schedule{II: 2, Time: []int{0, 2}}); err == nil {
		t.Fatal("row overflow accepted")
	}
	// Issue-width overflow: different FUs, same row, width 1.
	g3 := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUMem, Lat: 1}}}
	if err := sched.Check(g3, d, &sched.Schedule{II: 1, Time: []int{0, 1}}); err == nil {
		t.Fatal("issue-width overflow accepted")
	}
}

func TestResourceMinII(t *testing.T) {
	d := testMachine(2, 1, 1, 2)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt}, {FU: machine.FUInt}, {FU: machine.FUInt}, {FU: machine.FUInt},
		{FU: machine.FUMem},
	}}
	// 4 int / 2 units = 2; 5 total / width 2 = 3 (ceil). Bound is 3.
	if got := sched.ResourceMinII(g, d); got != 3 {
		t.Fatalf("ResourceMinII = %d, want 3", got)
	}
}

func TestPriorityOrderMemoized(t *testing.T) {
	g := &sched.Graph{
		Nodes: []sched.Node{{Lat: 1}, {Lat: 1}, {Lat: 1}},
		Edges: []sched.Edge{{From: 0, To: 1, Lat: 3}, {From: 1, To: 2, Lat: 2}},
	}
	before := sched.PriorityComputations()
	o1 := g.PriorityOrder()
	h := g.Heights()
	o2 := g.PriorityOrder()
	if d := sched.PriorityComputations() - before; d != 1 {
		t.Fatalf("priority derived %d times on one graph, want 1", d)
	}
	if &o1[0] != &o2[0] {
		t.Fatal("PriorityOrder not memoized")
	}
	// Chain 0→1→2 with latencies: heights 5, 2, 0 ⇒ order 0,1,2.
	if h[0] != 5 || h[1] != 2 || h[2] != 0 {
		t.Fatalf("heights = %v, want [5 2 0]", h)
	}
	if o1[0] != 0 || o1[1] != 1 || o1[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", o1)
	}
}

// TestRecurrenceBoundDerivedOncePerGraph: the recurrence bound is
// derived once per graph, with the priority order, and Prove and every
// exact probe read it. A probe at or above the bound runs no cycle
// extraction; Prove extracts only the cycle certifying the bound, and a
// probe below it only the cycle refuting that II.
func TestRecurrenceBoundDerivedOncePerGraph(t *testing.T) {
	d := testMachine(1, 1, 1, 4)
	// A two-node recurrence of total latency 4 over distance 1: RecMII 4.
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 2}, {FU: machine.FUFloat, Lat: 2}},
		Edges: []sched.Edge{{From: 0, To: 1, Lat: 2}, {From: 1, To: 0, Dist: 1, Lat: 2}},
	}
	derived, extracted := sched.PriorityComputations(), sched.CycleExtractions()
	ex := &exact.Sched{Budget: -1}
	o := sched.Prove(g, d, ex, 6, 20)
	if o.Verdict != sched.VerdictGap || o.ExactII != 4 || !strings.Contains(o.Cert, "II=3 infeasible: recurrence") {
		t.Fatalf("verdict %+v, want a gap at the recurrence bound 4, certified by the cycle at 3", o)
	}
	if got := sched.CycleExtractions() - extracted; got != 1 {
		t.Errorf("the proof extracted %d cycles, want 1: the certificate of the bound", got)
	}
	for ii := 4; ii <= 6; ii++ {
		if s, err := ex.Schedule(g, d, ii); s == nil {
			t.Fatalf("II=%d at or above the bound: %v", ii, err)
		}
	}
	if got := sched.CycleExtractions() - extracted; got != 1 {
		t.Errorf("probes at or above the bound ran %d cycle extractions", got-1)
	}
	_, err := ex.Schedule(g, d, 3)
	var u *sched.Unsat
	if !errors.As(err, &u) || u.Kind != sched.UnsatCycle || u.Recheck(g, d) != nil {
		t.Fatalf("II=3 below the bound: %v, want a cycle certificate that rechecks", err)
	}
	if got := sched.CycleExtractions() - extracted; got != 2 {
		t.Errorf("%d cycle extractions after the probe below the bound, want 2", got)
	}
	if got := sched.PriorityComputations() - derived; got != 1 || g.RecMII() != 4 {
		t.Errorf("derived %d times (RecMII %d), want once (4)", got, g.RecMII())
	}
}

func TestProveOptimal(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}}
	ex := &exact.Sched{Budget: -1}
	o := sched.Prove(g, d, ex, 3, 10)
	if o.Verdict != sched.VerdictOptimal || o.ExactII != 3 || o.Gap != 0 {
		t.Fatalf("verdict %+v, want proven-optimal at 3", o)
	}
	if o.Cert == "" {
		t.Fatal("optimal verdict above II=1 must carry the II−1 certificate")
	}
}

func TestProveGap(t *testing.T) {
	d := testMachine(2, 2, 2, 4)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}}
	ex := &exact.Sched{Budget: -1}
	// Pretend the heuristic needed II=3; exact schedules at 1.
	o := sched.Prove(g, d, ex, 3, 10)
	if o.Verdict != sched.VerdictGap || o.ExactII != 1 || o.Gap != 2 {
		t.Fatalf("verdict %+v, want gap=2 at exact II=1", o)
	}
}

func TestProveExactOnly(t *testing.T) {
	d := testMachine(1, 1, 1, 2)
	g := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}}}
	o := sched.Prove(g, d, &exact.Sched{Budget: -1}, 0, 8)
	if o.Verdict != sched.VerdictExactOnly || o.ExactII != 1 {
		t.Fatalf("verdict %+v, want exact-only at 1", o)
	}
	if o.Schedule == nil || o.Schedule.II != 1 {
		t.Fatalf("exact-only verdict hands back schedule %+v, want one at II=1", o.Schedule)
	}
}

func TestProveInfeasible(t *testing.T) {
	d := testMachine(2, 2, 2, 4)
	g := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}},
		Edges: []sched.Edge{
			{From: 0, To: 1, Dist: 0, Lat: 1},
			{From: 1, To: 0, Dist: 0, Lat: 1},
		},
	}
	o := sched.Prove(g, d, &exact.Sched{Budget: -1}, 0, 6)
	if o.Verdict != sched.VerdictInfeasible {
		t.Fatalf("verdict %+v, want infeasible", o)
	}
	if !strings.Contains(o.Cert, "recurrence") {
		t.Fatalf("infeasible cert should name the cycle, got %q", o.Cert)
	}
}

func TestProveBudget(t *testing.T) {
	d := testMachine(1, 1, 1, 1)
	nodes := make([]sched.Node, 8)
	for i := range nodes {
		nodes[i] = sched.Node{FU: machine.FUInt, Lat: 1}
	}
	g := &sched.Graph{Nodes: nodes}
	o := sched.Prove(g, d, &exact.Sched{Budget: 2}, 9, 20)
	if o.Verdict != sched.VerdictBudget {
		t.Fatalf("verdict %+v, want budget-exhausted", o)
	}
}

// scriptedExact is an exact backend that answers from a script: it
// schedules at the IIs in feasible (a valid schedule is not needed —
// Prove never checks the backend's schedules; its callers do) and
// refutes every other II with a search certificate, recording each
// probe. With t set, any probe fails the test.
type scriptedExact struct {
	t        *testing.T
	feasible map[int]bool
	probes   []int
}

func (s *scriptedExact) Schedule(g *sched.Graph, _ *machine.Desc, ii int) (*sched.Schedule, error) {
	if s.t != nil {
		s.t.Fatalf("exact backend probed at II=%d; the lower bound meets the witness", ii)
	}
	s.probes = append(s.probes, ii)
	if s.feasible[ii] {
		return &sched.Schedule{II: ii, Time: make([]int, g.N()), Visited: 3}, nil
	}
	return nil, &sched.Unsat{II: ii, Kind: sched.UnsatSearch, Visited: 5}
}

// TestProveWitnessAtLowerBound: when the analytic lower bound already
// equals the heuristic's II, its checked schedule closes the proof —
// the exact backend is never called and the certificate is the bound's.
func TestProveWitnessAtLowerBound(t *testing.T) {
	d := testMachine(1, 1, 1, 4)
	res := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}}
	// A two-node recurrence of total latency 4 over distance 1: RecMII 4.
	rec := &sched.Graph{
		Nodes: []sched.Node{{FU: machine.FUInt, Lat: 2}, {FU: machine.FUFloat, Lat: 2}},
		Edges: []sched.Edge{{From: 0, To: 1, Lat: 2}, {From: 1, To: 0, Dist: 1, Lat: 2}},
	}
	one := &sched.Graph{Nodes: []sched.Node{{FU: machine.FUInt, Lat: 1}}}
	for _, tc := range []struct {
		name     string
		g        *sched.Graph
		heurII   int
		wantCert string
	}{
		{"resource", res, 3, "II=2 infeasible: 3 int instructions exceed 1 unit(s)"},
		{"recurrence", rec, 4, "II=3 infeasible: recurrence"},
		{"unit", one, 1, "II=1 is the unconditional minimum"},
	} {
		o := sched.Prove(tc.g, d, &scriptedExact{t: t}, tc.heurII, 20)
		if o.Verdict != sched.VerdictOptimal || o.ExactII != tc.heurII || o.HeurII != tc.heurII || o.Visited != 0 {
			t.Errorf("%s: verdict %+v, want proven-optimal at %d with no search", tc.name, o, tc.heurII)
		}
		if !strings.Contains(o.Cert, tc.wantCert) {
			t.Errorf("%s: cert %q, want it to contain %q", tc.name, o.Cert, tc.wantCert)
		}
	}
}

// TestProveProbesBelowWitness: above the lower bound, Prove refutes only
// the IIs below the heuristic's — heurII itself is witnessed, never
// probed — and counts the nodes of every probe, the successful one too.
func TestProveProbesBelowWitness(t *testing.T) {
	d := testMachine(1, 1, 1, 4)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}} // ResMII 3
	ex := &scriptedExact{}
	o := sched.Prove(g, d, ex, 6, 20)
	if fmt.Sprint(ex.probes) != "[3 4 5]" {
		t.Fatalf("probed IIs %v, want [3 4 5]", ex.probes)
	}
	if o.Verdict != sched.VerdictOptimal || o.ExactII != 6 || o.Visited != 15 {
		t.Fatalf("verdict %+v, want proven-optimal at 6 after 15 nodes", o)
	}
	if !strings.Contains(o.Cert, "II=5 infeasible") {
		t.Fatalf("cert %q, want the refutation of II=5", o.Cert)
	}
	if o.Schedule != nil {
		t.Fatalf("proven-optimal verdict hands back a schedule at II=%d; the caller holds the witness", o.Schedule.II)
	}

	ex = &scriptedExact{feasible: map[int]bool{4: true}}
	o = sched.Prove(g, d, ex, 6, 20)
	if fmt.Sprint(ex.probes) != "[3 4]" {
		t.Fatalf("probed IIs %v, want [3 4]", ex.probes)
	}
	if o.Verdict != sched.VerdictGap || o.ExactII != 4 || o.Gap != 2 || o.Visited != 8 {
		t.Fatalf("verdict %+v, want gap 2 at 4 after 8 nodes", o)
	}
	if o.Schedule == nil || o.Schedule.II != 4 {
		t.Fatalf("gap verdict hands back schedule %+v, want the backend's at II=4", o.Schedule)
	}
}

// givingUp is a backend that gives up at every II, as a heuristic may.
type givingUp struct{}

func (givingUp) Schedule(*sched.Graph, *machine.Desc, int) (*sched.Schedule, error) {
	return nil, sched.ErrGiveUp
}

// TestProveGiveUpIsBudgetExhausted: a failure below the witness that is
// no proof proves nothing — the verdict is budget-exhausted, never
// proven-optimal on the strength of a backend that gave up.
func TestProveGiveUpIsBudgetExhausted(t *testing.T) {
	d := testMachine(1, 1, 1, 4)
	g := &sched.Graph{Nodes: []sched.Node{
		{FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1}, {FU: machine.FUInt, Lat: 1},
	}} // ResMII 3
	o := sched.Prove(g, d, givingUp{}, 5, 20)
	if o.Verdict != sched.VerdictBudget || o.ExactII != 0 || o.Schedule != nil {
		t.Fatalf("verdict %+v, want budget-exhausted with no minimum", o)
	}
	if !strings.Contains(o.Cert, "without a proof at II=3") {
		t.Fatalf("cert %q, want the backend's failure without a proof at II=3", o.Cert)
	}
}
