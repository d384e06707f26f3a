package main

import (
	"encoding/json"
	"strings"
	"testing"

	"slms/internal/analysis"
	"slms/internal/bench"
	"slms/internal/core"
	"slms/internal/server"
	"slms/internal/source"
)

// lintClaims lints a kernel repeatedly and collects every recurrence
// claim its diagnostics make, with the transform results to check them.
func lintClaims(t *testing.T, name string) (map[string]bool, []*core.Result) {
	t.Helper()
	for _, k := range bench.Kernels() {
		if k.Name != name {
			continue
		}
		prog, err := source.Parse(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := core.TransformProgram(prog, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		claims := map[string]bool{}
		for i := 0; i < 30; i++ {
			rep, err := analysis.LintProgram(name, prog, analysis.LintOptions{Core: core.DefaultOptions()})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range rep.Diags {
				if cycleRE.MatchString(d.Message) {
					claims[claimKey(d)] = true
				}
			}
		}
		if len(claims) == 0 {
			t.Fatalf("%s: no diagnostic names a recurrence", name)
		}
		return claims, results
	}
	t.Fatalf("no kernel %s", name)
	return nil, nil
}

// TestVerifyClaimAcceptsNamedRecurrences checks every recurrence the
// linter names, over repeated calls, on the kernels whose named
// recurrence changes from call to call, for a pipelined loop (SLMS300)
// and for one with no valid II (SLMS303).
func TestVerifyClaimAcceptsNamedRecurrences(t *testing.T) {
	for _, name := range []string{"idamax", "idamax2", "kernel24", "stone3"} {
		claims, results := lintClaims(t, name)
		for key := range claims {
			if err := verifyClaim(key, results); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func TestVerifyClaimRejectsFalseRecurrences(t *testing.T) {
	claims, results := lintClaims(t, "idamax")
	var key string
	for k := range claims {
		key = k
	}
	if !strings.Contains(key, " dist=1] ") || !strings.Contains(key, "forbids II=2") {
		t.Fatalf("claim %q: want a loop-carried edge and II=3", key)
	}
	cyc := cycleRE.FindStringSubmatch(key)[1]
	steps := strings.Split(cyc, " →[")
	open := strings.Join(steps[:len(steps)-1], " →[")
	for _, bad := range []string{
		strings.Replace(key, " dist=1] ", " dist=2] ", 1),                  // no such edge
		strings.Replace(key, cyc, open, 1),                                 // does not close
		strings.Replace(key, "II=3; ", "II=4; ", 1),                        // not the loop's II
		strings.Replace(key, "forbids II=2", "forbids II=1", 1),            // not II−1
		strings.Replace(key, "SLMS300 ", analysis.CodeBindingCycle+" ", 1), // the loop pipelined
	} {
		if verifyClaim(bad, results) == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestMaskRecurrences(t *testing.T) {
	reply := func(msg string) []byte {
		b, err := json.Marshal(server.ExplainResponse{Diagnostics: []analysis.Diag{{Code: analysis.CodePipelined, Line: 8, Col: 5, Message: msg}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := reply("pipelined at II=3; recurrence MI1 →[flow p dist=0] MI3 →[flow dmax dist=1] MI1 forbids II=2")
	b := reply("pipelined at II=3; recurrence MI3 →[flow dmax dist=1] MI1 →[chain] MI2 →[chain] MI3 forbids II=2")
	c := reply("pipelined at II=4; recurrence MI1 →[flow p dist=0] MI3 →[flow dmax dist=1] MI1 forbids II=3")
	if maskRecurrences(a) != maskRecurrences(b) {
		t.Error("replies naming different recurrences differ once masked")
	}
	if maskRecurrences(a) == maskRecurrences(c) {
		t.Error("replies with different II match once masked")
	}
	keys, err := recurrenceClaims(a)
	if err != nil || len(keys) != 1 || !strings.HasPrefix(keys[0], "SLMS300 8:5 pipelined at II=3") {
		t.Errorf("claims %q, %v", keys, err)
	}
}
