package bench

import (
	"reflect"
	"strings"
	"testing"

	"slms/internal/backend"
	"slms/internal/ims"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/source"
)

// TestOptgapCensus pins the census contract the BENCH trajectory and the
// compare gate rely on: every counted loop in the corpus gets a verdict,
// the verdict families add up, and the search-found gap kernels really
// do expose a heuristic miss that the exact scheduler closes.
func TestOptgapCensus(t *testing.T) {
	rows, sum, err := OptgapCensus(OptgapCorpus(), "standard")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("census produced no rows")
	}
	if sum.Loops != len(rows) {
		t.Fatalf("summary counts %d loops, census emitted %d rows", sum.Loops, len(rows))
	}
	if got := sum.ProvenOptimal + sum.Gaps + sum.ExactOnly + sum.Budget + sum.Infeasible; got != sum.Loops {
		t.Fatalf("verdict families sum to %d, want %d loops", got, sum.Loops)
	}
	known := map[string]bool{
		sched.VerdictOptimal: true, sched.VerdictGap: true,
		sched.VerdictExactOnly: true, sched.VerdictBudget: true,
		sched.VerdictInfeasible: true,
	}
	byKernel := map[string]OptgapRow{}
	for _, r := range rows {
		if !known[r.Verdict] {
			t.Errorf("%s#%d: unknown verdict %q", r.Kernel, r.Loop, r.Verdict)
		}
		if r.Verdict == sched.VerdictGap {
			if r.Gap != r.HeurII-r.ExactII || r.Gap <= 0 {
				t.Errorf("%s#%d: gap %d inconsistent with heur II %d, exact II %d",
					r.Kernel, r.Loop, r.Gap, r.HeurII, r.ExactII)
			}
			if r.Cert == "" {
				t.Errorf("%s#%d: gap verdict without a certificate", r.Kernel, r.Loop)
			}
		}
		if r.Loop == 1 {
			byKernel[r.Kernel] = r
		}
	}
	// With the heuristic's checked schedule as the witness at its II,
	// standard effort settles every loop: the exact search only has to
	// refute the IIs below it.
	if sum.Loops != 36 || sum.ProvenOptimal != 33 || sum.Gaps != 3 || sum.Budget != 0 ||
		sum.ExactOnly != 0 || sum.Infeasible != 0 {
		t.Errorf("census %d loops: %d proven optimal, %d gaps, %d budget-exhausted, %d exact-only, %d infeasible; want 36: 33/3/0/0/0",
			sum.Loops, sum.ProvenOptimal, sum.Gaps, sum.Budget, sum.ExactOnly, sum.Infeasible)
	}
	// The gaps are the regression anchors: the heuristic's height-priority
	// placement misses the minimal II by one on real-corpus kernel21 and
	// on the two search-found kernels, and the exact scheduler both finds
	// and proves the lower II.
	for _, want := range []struct {
		kernel          string
		heurII, exactII int
	}{
		{"kernel21", 4, 3},
		{"heurmiss", 6, 5},
		{"heurmiss2", 8, 7},
	} {
		r, ok := byKernel[want.kernel]
		if !ok {
			t.Errorf("census has no row for %s", want.kernel)
			continue
		}
		if r.Verdict != sched.VerdictGap || r.HeurII != want.heurII || r.ExactII != want.exactII {
			t.Errorf("%s: verdict %q heur II %d exact II %d, want gap %d->%d",
				want.kernel, r.Verdict, r.HeurII, r.ExactII, want.heurII, want.exactII)
		}
	}
	if !strings.Contains(OptgapTable(rows, sum), "proven optimal:") {
		t.Error("OptgapTable lost its summary line")
	}
}

// TestOptgapCountsSuccessfulProbe: the exact search that finds
// heurmiss2's lower II reports its nodes in the verdict — the probe
// that schedules counts toward the proof's effort like the refuted ones.
func TestOptgapCountsSuccessfulProbe(t *testing.T) {
	var src string
	for _, k := range OptgapKernels() {
		if k.Name == "heurmiss2" {
			src = k.Source
		}
	}
	f, err := backend.Compile(source.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	backend.LocalCSE(f)
	cfg, err := ims.EffortConfig("", "standard")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if b.IsLoopBody && b.Counted {
			o := ims.ScheduleWith(b, machine.IA64Like(), true, cfg).Opt
			if o == nil || o.Verdict != sched.VerdictGap || o.Visited <= 0 {
				t.Fatalf("heurmiss2 verdict %+v, want a gap with the search's nodes counted", o)
			}
			return
		}
	}
	t.Fatal("heurmiss2 has no counted loop body")
}

// The census is pure static scheduling — identical inputs must yield
// byte-identical rows, or the compare gate would flap. Quick effort
// keeps the double run cheap; determinism is effort-independent.
func TestOptgapCensusDeterministic(t *testing.T) {
	rows1, sum1, err := OptgapCensus(OptgapCorpus(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	rows2, sum2, err := OptgapCensus(OptgapCorpus(), "quick")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Error("census rows differ between identical runs")
	}
	if !reflect.DeepEqual(sum1, sum2) {
		t.Error("census summaries differ between identical runs")
	}
}

func TestFigureOptgap(t *testing.T) {
	f, err := FigureOptgap()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "optgap" {
		t.Fatalf("figure ID = %q", f.ID)
	}
	if len(f.Series) != 2 {
		t.Fatalf("want a heuristic and an exact series, got %v", f.Series)
	}
	if len(f.Rows) == 0 {
		t.Fatal("figure has no rows")
	}
	if len(f.Notes) == 0 {
		t.Fatal("figure lost its census summary note")
	}
	for _, r := range f.Rows {
		if r.Value2 > 0 && r.Value2 > r.Value && !strings.Contains(r.Note, "no schedule") {
			t.Errorf("%s: exact II %.0f exceeds heuristic II %.0f", r.Kernel, r.Value2, r.Value)
		}
	}
}
