package slms_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"slms"
)

// ExampleTransformSource is the one-screen library quickstart.
func ExampleTransformSource() {
	out, results, err := slms.TransformSource(`
		float A[64];
		float t = 0.0;
		for (i = 1; i < 60; i++) {
			t = A[i+1];
			A[i] = A[i-1] + t;
		}
	`, slms.DefaultOptions())
	if err != nil {
		panic(err)
	}
	_ = out
	r := results[0]
	fmt.Printf("applied=%v II=%d stages=%d unroll=%d\n", r.Applied, r.II, r.Stages, r.Unroll)
	// Output:
	// applied=true II=1 stages=2 unroll=2
}

func TestPublicAPIEndToEnd(t *testing.T) {
	prog, err := slms.Parse(`
		float A[128]; float B[128];
		for (z = 0; z < 128; z++) { A[z] = 0.25*z; B[z] = 1.0; }
		float t = 0.0;
		for (i = 1; i < 120; i++) {
			t = A[i-1];
			B[i] = B[i] + t;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Transform and print.
	out, results, err := slms.Transform(prog, slms.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	applied := false
	for _, r := range results {
		applied = applied || r.Applied
	}
	if !applied {
		t.Fatal("not applied")
	}
	if !strings.Contains(slms.PrintPaper(out), "||") {
		t.Error("paper style output lacks rows")
	}
	// Interpret.
	env := slms.NewEnv()
	if err := slms.Run(out, env); err != nil {
		t.Fatal(err)
	}
	// Measure on a machine.
	m, err := slms.Measure(prog, slms.MachineIA64(), slms.CompilerWeak, slms.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Base.Cycles <= 0 || m.SLMS.Cycles <= 0 {
		t.Errorf("degenerate measurement: %+v", m)
	}
	t.Logf("speedup on ia64/weak: %.3f", m.Speedup)
	// The SLC driver.
	res, err := slms.Optimize(prog, slms.DefaultSLCOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled == 0 {
		t.Error("SLC scheduled nothing")
	}
}

// TestProfilingAPI measures a kernel plainly and with cycle
// attribution, and renders the profiles in all three formats.
func TestProfilingAPI(t *testing.T) {
	prog, err := slms.Parse(`
		float A[128]; float B[128];
		float t = 0.0;
		for (i = 1; i < 120; i++) {
			t = A[i-1];
			B[i] = B[i] + t;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := slms.Measure(prog, slms.MachineIA64(), slms.CompilerWeak, slms.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Base.Profile != nil || plain.SLMS.Profile != nil {
		t.Fatal("Measure recorded a profile")
	}
	m, err := slms.MeasureCtx(context.Background(), prog, slms.MachineIA64(), slms.CompilerWeak,
		slms.DefaultOptions(), nil, slms.Modes{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	base, slmsLeg := m.Base.Profile, m.SLMS.Profile
	if base == nil || slmsLeg == nil {
		t.Fatal("a profiled MeasureCtx recorded no profiles")
	}
	tot := base.Totals()
	if got := tot.Total(); got != m.Base.Cycles {
		t.Errorf("base profile attributes %d cycles, simulated %d", got, m.Base.Cycles)
	}
	if len(slmsLeg.Loops) == 0 {
		t.Error("slms profile carries no per-loop stats")
	}
	for _, format := range []string{
		slms.ProfileFormatText, slms.ProfileFormatJSON, slms.ProfileFormatPprof,
	} {
		var buf strings.Builder
		if err := slms.WriteProfile(&buf, format, base, slmsLeg); err != nil {
			t.Errorf("WriteProfile %s: %v", format, err)
		} else if buf.Len() == 0 {
			t.Errorf("WriteProfile %s produced nothing", format)
		}
	}
}

// TestTraceAPI: under StartTrace, Transform and Measure each write a
// span tree of their own ("transform", "experiment"), every decision
// record is an event of a loop span, and Decisions reads the records
// from the spans in creation order.
func TestTraceAPI(t *testing.T) {
	prog, err := slms.Parse(`
		float A[128]; float B[128];
		float t = 0.0;
		for (i = 1; i < 120; i++) {
			t = A[i-1];
			B[i] = B[i] + t;
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	slms.StartTrace()
	_, results, terr := slms.Transform(prog, slms.DefaultOptions())
	_, merr := slms.Measure(prog, slms.MachineIA64(), slms.CompilerWeak, slms.DefaultOptions(), nil)
	decs := slms.Decisions()
	var buf bytes.Buffer
	_, werr := slms.StopTrace(&buf, slms.TraceFormatJSONL)
	if err := errors.Join(terr, merr, werr); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(decs) == 0 || !reflect.DeepEqual(decs[0], results[0].Decision) {
		t.Fatalf("Decisions() = %+v, want Transform's record %+v first", decs, results)
	}
	type record struct {
		Type string `json:"type"`
		ID   int64  `json:"id"`
		Root int64  `json:"root"`
		Span int64  `json:"span"`
		Name string `json:"name"`
	}
	spans := map[int64]record{}
	roots := map[string]bool{}
	var lines []record
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r record
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("trace line %q: %v", l, err)
		}
		if r.Type == "span" {
			spans[r.ID] = r
			roots[r.Name] = roots[r.Name] || r.ID == r.Root
		}
		lines = append(lines, r)
	}
	if !roots["transform"] || !roots["experiment"] {
		t.Errorf("span tree roots = %v, want transform and experiment", roots)
	}
	n := 0
	for _, r := range lines {
		if r.Type != "decision" {
			continue
		}
		n++
		if sp, ok := spans[r.Span]; !ok || !strings.HasPrefix(sp.Name, "loop@") || sp.Root != r.Root {
			t.Errorf("decision names span %d (root %d), found %+v", r.Span, r.Root, sp)
		}
	}
	if n != len(decs) {
		t.Errorf("trace holds %d decision records, Decisions() %d", n, len(decs))
	}
}
