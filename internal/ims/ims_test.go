package ims

import (
	"reflect"
	"strings"
	"testing"

	"slms/internal/backend"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/sched/exact"
	"slms/internal/source"
)

// loopBody compiles src and returns its innermost loop body block.
func loopBody(t testing.TB, src string) *ir.Block {
	t.Helper()
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	backend.LocalCSE(f)
	for _, b := range f.Blocks {
		if b.IsLoopBody {
			return b
		}
	}
	t.Fatal("no loop body block")
	return nil
}

func TestParallelLoopHitsResMII(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, `
		float A[128]; float B[128]; float C[128];
		for (i = 0; i < 120; i++) {
			C[i] = A[i] * B[i] + 2.0;
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("IMS rejected a parallel loop: %s", r.Reason)
	}
	// 2 loads + 1 store on 2 memory ports: ResMII ≥ 2; a fully parallel
	// loop must reach it (or very close).
	if r.ResMII < 2 {
		t.Errorf("ResMII = %d, want >= 2", r.ResMII)
	}
	if r.II > r.ResMII+1 {
		t.Errorf("II = %d far above ResMII %d", r.II, r.ResMII)
	}
	if r.SL < r.II {
		t.Errorf("SL %d < II %d", r.SL, r.II)
	}
}

func TestRecurrenceBoundsRecMII(t *testing.T) {
	d := machine.IA64Like()
	// x[i] = x[i-1]*z[i]: carried chain through an fmul (latency 4):
	// RecMII >= 4.
	b := loopBody(t, `
		float x[128]; float z[128];
		for (i = 1; i < 120; i++) {
			x[i] = x[i-1] * z[i];
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("IMS rejected: %s", r.Reason)
	}
	if r.RecMII < d.Lat.FloatMul {
		t.Errorf("RecMII = %d, want >= %d (carried fmul chain)", r.RecMII, d.Lat.FloatMul)
	}
	if r.II < r.RecMII {
		t.Errorf("II %d below RecMII %d", r.II, r.RecMII)
	}
}

func TestWeakDisambiguationInflatesII(t *testing.T) {
	d := machine.IA64Like()
	src := `
		float A[128];
		for (i = 0; i < 120; i++) {
			A[i] = A[i] * 2.0 + 1.0;
		}
	`
	b := loopBody(t, src)
	strong := Schedule(b, d, true)
	weak := Schedule(b, d, false)
	if !strong.OK {
		t.Fatalf("strong rejected: %s", strong.Reason)
	}
	if weak.OK && weak.II < strong.II {
		t.Errorf("weak disambiguation should never give a smaller II: %d < %d", weak.II, strong.II)
	}
}

func TestAccumulatorII(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, `
		float A[128]; float B[128];
		float s = 0.0;
		for (i = 0; i < 120; i++) {
			s += A[i] * B[i];
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
	// The s chain is one fadd per iteration: RecMII = fadd latency.
	if r.II < d.Lat.FloatOp {
		t.Errorf("II = %d cannot beat the carried fadd latency %d", r.II, d.Lat.FloatOp)
	}
}

func TestRegisterPressureRejection(t *testing.T) {
	// A loop with long fp latencies and many live values: on a machine
	// with a tiny register file the pipelined schedule must be rejected
	// (the paper's Figure 11 failure mode).
	tiny := machine.IA64Like()
	tiny.IntRegs = 6
	tiny.FPRegs = 4
	b := loopBody(t, `
		float A[256]; float B[256]; float C[256]; float D[256];
		for (i = 0; i < 250; i++) {
			D[i] = A[i]*B[i] + B[i]*C[i] + A[i]*C[i] + A[i+1]*B[i+1] + 0.5;
		}
	`)
	r := Schedule(b, tiny, true)
	if r.OK {
		t.Fatalf("expected register-pressure rejection, got II=%d press=(%d,%d)",
			r.II, r.PressInt, r.PressFloat)
	}
	if !strings.Contains(r.Reason, "register pressure") {
		t.Errorf("reason = %q, want register pressure", r.Reason)
	}
	// The same loop fits the real machine.
	if r2 := Schedule(b, machine.IA64Like(), true); !r2.OK {
		t.Errorf("full-size file should accept: %s", r2.Reason)
	}
}

func TestStagesConsistent(t *testing.T) {
	d := machine.Power4Like()
	b := loopBody(t, `
		float A[128]; float B[128];
		for (i = 0; i < 120; i++) {
			B[i] = A[i] * 1.5 + A[i+1] * 2.5;
		}
	`)
	r := Schedule(b, d, true)
	if !r.OK {
		t.Fatalf("rejected: %s", r.Reason)
	}
	if r.Stages != (r.SL+r.II-1)/r.II {
		t.Errorf("stages %d inconsistent with SL %d / II %d", r.Stages, r.SL, r.II)
	}
}

func TestEmptyBody(t *testing.T) {
	b := &ir.Block{}
	if r := Schedule(b, machine.IA64Like(), true); r.OK {
		t.Error("empty body must not schedule")
	}
}

// brokenScheduler claims a schedule at every II it is asked for, with
// every instruction issued at cycle 0: a backend bug whose output fails
// sched.Check on any loop with a latency-carrying dependence.
type brokenScheduler struct{}

func (brokenScheduler) Schedule(g *sched.Graph, _ *machine.Desc, ii int) (*sched.Schedule, error) {
	return &sched.Schedule{II: ii, Time: make([]int, g.N())}, nil
}

// TestProverIgnoresUncheckedSchedule: a heuristic schedule that fails
// sched.Check is no feasibility witness, so the exact search decides
// alone and the verdict is never proven-optimal or gap on its word; the
// exact schedule it finds is kept in place of the unchecked one.
func TestProverIgnoresUncheckedSchedule(t *testing.T) {
	d := machine.IA64Like()
	b := loopBody(t, retrySrc)
	prove := &exact.Sched{Budget: -1}
	r := ScheduleWith(b, d, true, Config{place: brokenScheduler{}, Prove: prove})
	if r.Opt == nil {
		t.Fatal("no verdict")
	}
	if v := r.Opt.Verdict; v == sched.VerdictOptimal || v == sched.VerdictGap || r.Opt.HeurII != 0 {
		t.Fatalf("unchecked schedule at II=%d taken as a witness: %+v", r.II, r.Opt)
	}
	// Issuing everything at cycle 0 shortens the schedule below any
	// that honours the loop's latencies.
	unchecked := ScheduleWith(b, d, true, Config{place: brokenScheduler{}})
	if r.Opt.Verdict != sched.VerdictExactOnly || !r.OK || r.II != r.Opt.ExactII || r.SL == unchecked.SL {
		t.Fatalf("exact-only schedule not kept: OK=%v II=%d SL=%d (unchecked SL %d), verdict %+v",
			r.OK, r.II, r.SL, unchecked.SL, r.Opt)
	}
	// The real heuristic's schedule on the same loop is a witness.
	if r := ScheduleWith(b, d, true, Config{Prove: prove}); r.Opt == nil ||
		r.Opt.Verdict != sched.VerdictOptimal || r.Opt.HeurII != r.II {
		t.Fatalf("checked heuristic schedule at II=%d: verdict %+v, want proven-optimal", r.II, r.Opt)
	}
}

// TestAdoptionRejectsBadLowerSchedule: a lower schedule the prover hands
// back replaces the heuristic's only when it passes sched.Check and the
// register-pressure test. The placement gives up at the first two IIs,
// so the prover probes below the heuristic's II and reports a gap.
func TestAdoptionRejectsBadLowerSchedule(t *testing.T) {
	tiny := machine.IA64Like()
	tiny.FPRegs = 1 // fewer than the loop's fp values: no schedule fits
	for _, tc := range []struct {
		name  string
		d     *machine.Desc
		prove sched.Scheduler
	}{
		{"fails check", machine.IA64Like(), brokenScheduler{}},
		{"exceeds register file", tiny, Heuristic{}},
	} {
		b := loopBody(t, retrySrc)
		want := *ScheduleWith(b, tc.d, true, Config{place: &givingUpScheduler{fail: 2}})
		r := ScheduleWith(b, tc.d, true, Config{place: &givingUpScheduler{fail: 2}, Prove: tc.prove})
		if r.Opt == nil || r.Opt.Verdict != sched.VerdictGap || r.Opt.Schedule == nil || r.Opt.HeurII != want.II {
			t.Fatalf("%s: verdict %+v, want a gap below the heuristic's II=%d", tc.name, r.Opt, want.II)
		}
		lower := r.Opt.ExactII
		r.Opt = nil
		if *r != want {
			t.Errorf("%s: lower schedule at II=%d replaced the heuristic's result:\n got %+v\nwant %+v",
				tc.name, lower, *r, want)
		}
	}
}

// TestEffortConfig pins the one validation point of the scheduler and
// effort names: "exact", or any effort, adds the exact prover at the
// effort's budget, and the two scheduler names agree at every effort.
func TestEffortConfig(t *testing.T) {
	if _, err := EffortConfig("no-such-backend", ""); err == nil ||
		!strings.Contains(err.Error(), "ims") || !strings.Contains(err.Error(), "exact") {
		t.Fatalf("unknown scheduler: err %v, want an error listing ims and exact", err)
	}
	if _, err := EffortConfig("", "no-such-effort"); err == nil {
		t.Fatal("unknown effort must error")
	}
	for _, name := range []string{"", "ims"} {
		if cfg, err := EffortConfig(name, ""); err != nil || cfg.Prove != nil {
			t.Fatalf("EffortConfig(%q, \"\") = %+v, %v; want the heuristic alone", name, cfg, err)
		}
	}
	exactCfg, err := EffortConfig("exact", "")
	if err != nil {
		t.Fatal(err)
	}
	if std, _ := EffortConfig("", "standard"); !reflect.DeepEqual(exactCfg, std) {
		t.Fatalf("exact without an effort = %+v, want ims at standard %+v", exactCfg, std)
	}
	for effort, budget := range map[string]int{"quick": 20_000, "standard": 0, "max": -1} {
		for _, name := range []string{"", "ims", "exact"} {
			cfg, err := EffortConfig(name, effort)
			if err != nil {
				t.Fatal(err)
			}
			if ex, ok := cfg.Prove.(*exact.Sched); !ok || ex.Budget != budget {
				t.Errorf("EffortConfig(%q, %q).Prove = %#v, want the exact backend at budget %d",
					name, effort, cfg.Prove, budget)
			}
		}
	}
}
