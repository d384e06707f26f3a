package bench

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"strings"
	"testing"

	"slms/internal/backend"
	"slms/internal/ims"
	"slms/internal/ir"
	"slms/internal/machine"
	"slms/internal/sched"
	"slms/internal/source"
)

// TestOptgapCensus pins the census contract: every counted loop in the
// corpus gets a verdict, the verdict families add up, and the
// search-found gap kernels really do expose a heuristic miss that the
// exact scheduler closes.
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

// certsGoldenPath holds the prover's full verdict on every optgap-corpus
// loop at quick, standard and max effort: verdict, heuristic and exact
// II, gap, nodes visited and the certificate text slmslint -optgap and
// /v1/explain show. To regenerate it after an intended change, delete
// the file and run TestOptgapCertificates, which writes it anew.
const certsGoldenPath = "testdata/optgap_certs.golden"

// TestOptgapCertificates pins every optgap-corpus proof to the golden
// file, byte for byte. The census table and figures.golden print only
// IIs and verdicts; this pins the certificates and the search effort.
func TestOptgapCertificates(t *testing.T) {
	d := machine.IA64Like()
	var out strings.Builder
	for _, effort := range []string{"quick", "standard", "max"} {
		cfg, err := ims.EffortConfig("", effort)
		if err != nil {
			t.Fatal(err)
		}
		err = optgapLoops(OptgapCorpus(), func(k Kernel, loop int, b *ir.Block) {
			if o := ims.ScheduleWith(b, d, true, cfg).Opt; o != nil {
				fmt.Fprintf(&out, "%s %s#%d %s heur=%d exact=%d gap=%d visited=%d: %s\n",
					effort, k.Name, loop, o.Verdict, o.HeurII, o.ExactII, o.Gap, o.Visited, o.Cert)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := out.String()
	golden, err := os.ReadFile(certsGoldenPath)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(certsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing and has been written; review and commit it", certsGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("proofs differ from %s at %s", certsGoldenPath, firstDiff(string(golden), got))
	}
}

// TestOptgapBounds holds every optgap-corpus loop to the one rule
// behind its II bounds, sched.BoundUnsat: each II below
// max(ResMII, RecMII) gets a certificate the independent checker
// accepts, and the bound itself none. Compiling the loop derives the
// bounds once: a heuristic-only compile builds no certificate, and a
// proof extracts at most the one cycle certifying its bound, none for
// its probes at or above it.
func TestOptgapBounds(t *testing.T) {
	d := machine.IA64Like()
	prove, err := ims.EffortConfig("", "standard")
	if err != nil {
		t.Fatal(err)
	}
	certs := 0
	err = optgapLoops(OptgapCorpus(), func(k Kernel, loop int, b *ir.Block) {
		ins := b.Instrs
		if n := len(ins); n > 0 && ins[n-1].Op.IsBranch() {
			ins = ins[:n-1]
		}
		if len(ins) == 0 {
			return
		}
		g := ims.BuildGraph(ins, d, true)
		lb := max(sched.ResourceMinII(g, d), g.RecMII())
		for ii := 1; ii < lb; ii++ {
			u := sched.BoundUnsat(g, d, ii)
			if u == nil {
				t.Errorf("%s#%d: no certificate at II=%d below the bound %d", k.Name, loop, ii, lb)
				continue
			}
			if err := u.Recheck(g, d); err != nil {
				t.Errorf("%s#%d: certificate %q fails the recheck: %v", k.Name, loop, u.Describe(), err)
			}
			certs++
		}
		if u := sched.BoundUnsat(g, d, lb); u != nil {
			t.Errorf("%s#%d: the bound II=%d itself is refuted: %s", k.Name, loop, lb, u.Describe())
		}

		for _, tc := range []struct {
			name        string
			cfg         ims.Config
			extractions int64
		}{{"heuristic-only", ims.Config{}, 0}, {"proved", prove, 1}} {
			derived, extracted := sched.PriorityComputations(), sched.CycleExtractions()
			ims.ScheduleWith(b, d, true, tc.cfg)
			if got := sched.PriorityComputations() - derived; got != 1 {
				t.Errorf("%s#%d %s: bounds derived %d times, want 1", k.Name, loop, tc.name, got)
			}
			if got := sched.CycleExtractions() - extracted; got > tc.extractions {
				t.Errorf("%s#%d %s: %d cycle extractions, want at most %d", k.Name, loop, tc.name, got, tc.extractions)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if certs == 0 {
		t.Fatal("the corpus produced no certificate to recheck")
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
// byte-identical rows, or the golden's optgap table would flap. Quick effort
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
