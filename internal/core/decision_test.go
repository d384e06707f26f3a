package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slms/internal/obs"
	"slms/internal/source"
)

// Every loop the transformer touches — applied or skipped — must carry
// a decision record with a stable SLMS2xx code, a verdict consistent
// with the outcome, and, whenever the §4 filter measured the loop, the
// measured memory-ref ratio as evidence. This runs over all of
// testdata, so new corpus files are covered automatically.
func TestEveryLoopHasDecisionRecord(t *testing.T) {
	files, err := filepath.Glob("testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := source.Parse(string(text))
			if err != nil {
				t.Fatal(err)
			}
			_, results, err := TransformProgram(prog, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				d := r.Decision
				if !strings.HasPrefix(d.Code, "SLMS2") {
					t.Errorf("loop %d (%s): decision code %q is not a stable SLMS2xx code",
						i, r.Pos, d.Code)
				}
				wantVerdict := obs.VerdictSkip
				if r.Applied {
					wantVerdict = obs.VerdictAccept
				}
				if d.Verdict != wantVerdict {
					t.Errorf("loop %d (%s): verdict %q inconsistent with applied=%v",
						i, r.Pos, d.Verdict, r.Applied)
				}
				if r.Pos.Line == 0 {
					t.Errorf("loop %d: result has no loop position", i)
				}
				if r.Applied && d.Code != obs.DecApplied {
					t.Errorf("loop %d (%s): applied loop has code %s, want %s",
						i, r.Pos, d.Code, obs.DecApplied)
				}
				// Wherever the filter counted references, the record must
				// carry the measured ratio.
				if r.Filter.LS+r.Filter.AO > 0 {
					ratio, ok := d.Attrs["filter_ratio"].(float64)
					if !ok {
						t.Errorf("loop %d (%s): decision lacks measured filter_ratio (attrs=%v)",
							i, r.Pos, d.Attrs)
					} else if ratio != r.Filter.MemRefRatio {
						t.Errorf("loop %d (%s): filter_ratio %v != measured %v",
							i, r.Pos, ratio, r.Filter.MemRefRatio)
					}
				}
				// A filter skip specifically must state the threshold it
				// compared against.
				if d.Code == obs.DecMemRefFilter {
					if _, ok := d.Attrs["threshold"]; !ok {
						t.Errorf("loop %d (%s): filter skip lacks threshold attr", i, r.Pos)
					}
				}
			}
		})
	}
}

// A skipped loop's decision must also be filed as an event of the
// loop's span, so slmsexplain and trace consumers see it without
// holding the Result — under the caller's span tree, or under a
// "transform" root of its own when the caller has none.
func TestDecisionsReachTracer(t *testing.T) {
	prog := source.MustParse(`
		float A[100]; float B[100];
		for (i = 0; i < 100; i++) {
			A[i] = B[i];
		}
	`)
	for _, parent := range []string{"test", ""} {
		tr := obs.NewTracer()
		obs.Enable(tr)
		var sp *obs.Span
		if parent != "" {
			sp = obs.Root(parent)
		}
		_, results, err := TransformProgramSpan(sp, prog, DefaultOptions())
		sp.End()
		obs.Disable()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Applied {
			t.Fatalf("want one skipped loop, got %+v", results)
		}
		decs := tr.Decisions()
		if len(decs) != 1 {
			t.Fatalf("tracer collected %d decisions, want 1", len(decs))
		}
		if decs[0].Code != obs.DecMemRefFilter || decs[0].Verdict != obs.VerdictSkip {
			t.Errorf("tracer decision = %s/%s, want %s/skip",
				decs[0].Code, decs[0].Verdict, obs.DecMemRefFilter)
		}
		wantRoot := parent
		if wantRoot == "" {
			wantRoot = "transform"
		}
		spans := tr.Spans()
		for _, s := range spans {
			if len(s.Decisions()) == 0 {
				continue
			}
			if want := "loop@" + results[0].Pos.String(); s.Name != want {
				t.Errorf("decision filed on span %q, want %q", s.Name, want)
			}
			if root := s.Tree()[0]; root.Name != wantRoot || root.ID != s.RootID {
				t.Errorf("decision's span tree is rooted at %q, want %q", root.Name, wantRoot)
			}
		}
	}
}
