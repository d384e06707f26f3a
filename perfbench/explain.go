package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"slms/internal/analysis"
	"slms/internal/core"
	"slms/internal/ddg"
	"slms/internal/mii"
	"slms/internal/server"
	"slms/internal/source"
)

// The /v1/explain check.
//
// For a loop pipelined at II > 1 (SLMS300) and for a loop with no valid
// II (SLMS303), /v1/explain names the recurrence that binds it. When
// several recurrences bind alike, which one it names changes from one
// computation to the next: dep's scalarEdges appends the scalar
// dependence edges in map iteration order, and mii.BindingCycle returns
// the first binding cycle in edge order. An evicted repeat, which slmsd
// computes again, can then name another recurrence than the first reply
// did (stone3, idamax, idamax2 and kernel24 of the corpus), every
// other byte the same.
//
// Every named recurrence is checked against the loop's dependence
// graph, explain repeats are compared with their first reply with the
// recurrences masked, and the share of recomputed repeats that named
// another recurrence is reported (analysis.recurrence_changed_share),
// so the defect shows in every result without counting a reply that
// names a true binding recurrence as wrong.

// cycleRE matches a recurrence as mii.CycleString renders it.
var cycleRE = regexp.MustCompile(`recurrence (MI\d+(?: →\[[^\]]*\] MI\d+)+)`)

// maskRecurrences is the reply with every named recurrence masked.
func maskRecurrences(reply []byte) [sha256.Size]byte {
	return sha256.Sum256(cycleRE.ReplaceAll(reply, []byte("recurrence MI?")))
}

// recurrenceClaims lists the diagnostics of an explain reply that name
// a recurrence, as claim keys.
func recurrenceClaims(reply []byte) ([]string, error) {
	var r server.ExplainResponse
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, err
	}
	var keys []string
	for _, d := range r.Diagnostics {
		if cycleRE.MatchString(d.Message) {
			keys = append(keys, claimKey(d))
		}
	}
	return keys, nil
}

// claimKey identifies a diagnostic that names a recurrence: its code,
// position and message.
func claimKey(d analysis.Diag) string {
	return fmt.Sprintf("%s %d:%d %s", d.Code, d.Line, d.Col, d.Message)
}

// claimKeyRE splits a claim key back into its diagnostic.
var claimKeyRE = regexp.MustCompile(`^(\S+) (\d+):(\d+) (.*)$`)

var (
	pipelinedRE = regexp.MustCompile(`^pipelined at II=(\d+); recurrence .* forbids II=(\d+)$`)
	noValidIIRE = regexp.MustCompile(`^no valid II: recurrence .* requires II ≥ (\d+), but only II < (\d+) \(the MI count\)`)
	noDistRE    = regexp.MustCompile(`^no valid II: recurrence .* carries no iteration distance`)
)

// verifyClaim checks a claim of an explain reply for prog against the
// dependence graph of the loop it names: the recurrence must be a cycle
// of that graph, and bind as the message says (forbid II−1 of a loop
// pipelined at II, or, for a loop with no valid II, need an II of at
// least the MI count). results is the transform of prog with the
// default options, as slmsd's /v1/explain runs it.
func verifyClaim(key string, results []*core.Result) error {
	m := claimKeyRE.FindStringSubmatch(key)
	if m == nil {
		return fmt.Errorf("malformed claim %q", key)
	}
	code, msg := m[1], m[4]
	line, _ := strconv.Atoi(m[2])
	col, _ := strconv.Atoi(m[3])
	var res *core.Result
	for _, r := range results {
		if r.Pos.Line == line && r.Pos.Col == col {
			res = r
		}
	}
	if res == nil || res.Dep == nil {
		return fmt.Errorf("%s: no analyzed loop at %d:%d", code, line, col)
	}
	g := ddg.Build(res.Dep, true)
	cyc := cycleRE.FindStringSubmatch(msg)[1]
	switch code {
	case analysis.CodePipelined:
		p := pipelinedRE.FindStringSubmatch(msg)
		if p == nil {
			return fmt.Errorf("%s: unexpected message %q", code, msg)
		}
		ii, _ := strconv.ParseInt(p[1], 10, 64)
		forbid, _ := strconv.ParseInt(p[2], 10, 64)
		if !res.Applied || res.II != ii || forbid != ii-1 {
			return fmt.Errorf("%s: loop at %d:%d has applied=%v II=%d, message says II=%d forbids %d",
				code, line, col, res.Applied, res.II, ii, forbid)
		}
		// The schedule search ignores conservative edges only under
		// speculation, which the default options leave off.
		edges, err := cycleEdges(g, cyc, false)
		if err != nil {
			return fmt.Errorf("%s: %w", code, err)
		}
		if !bindsAt(edges, forbid) {
			return fmt.Errorf("%s: recurrence %s does not forbid II=%d", code, cyc, forbid)
		}
	case analysis.CodeBindingCycle:
		if res.Applied {
			return fmt.Errorf("%s: loop at %d:%d was pipelined", code, line, col)
		}
		edges, err := cycleEdges(g, cyc, true)
		if err != nil {
			return fmt.Errorf("%s: %w", code, err)
		}
		switch p := noValidIIRE.FindStringSubmatch(msg); {
		case p != nil:
			need, _ := strconv.ParseInt(p[1], 10, 64)
			n, _ := strconv.Atoi(p[2])
			got, ok := mii.CycleMinII(edges)
			if n != g.N || !ok || got != need || !bindsAt(edges, int64(n-1)) {
				return fmt.Errorf("%s: recurrence %s needs II ≥ %d (ok=%v) over %d MIs, message says %d over %d",
					code, cyc, got, ok, g.N, need, n)
			}
		case noDistRE.MatchString(msg):
			if _, ok := mii.CycleMinII(edges); ok || !bindsAt(edges, 0) {
				return fmt.Errorf("%s: recurrence %s is not a positive cycle without distance", code, cyc)
			}
		default:
			return fmt.Errorf("%s: unexpected message %q", code, msg)
		}
	default:
		return fmt.Errorf("unexpected diagnostic %s naming a recurrence", code)
	}
	return nil
}

// cycleEdges finds the edges of a rendered recurrence in g: each step
// must be an edge of g that renders the same, and the steps must close.
// Conservative (unknown-distance) edges count only with unknown set.
func cycleEdges(g *ddg.Graph, cyc string, unknown bool) ([]ddg.Edge, error) {
	steps := strings.Split(cyc, " →[")
	first, err := strconv.Atoi(strings.TrimPrefix(steps[0], "MI"))
	if err != nil {
		return nil, fmt.Errorf("recurrence %s: %w", cyc, err)
	}
	var edges []ddg.Edge
	from := first
	for _, s := range steps[1:] {
		label, toMI, _ := strings.Cut(s, "] MI")
		to, err := strconv.Atoi(toMI)
		if err != nil {
			return nil, fmt.Errorf("recurrence %s: %w", cyc, err)
		}
		want := fmt.Sprintf("MI%d →[%s] MI%d", from, label, to)
		found := false
		for _, e := range g.Edges {
			if e.From == from && e.To == to && (unknown || !e.Unknown) && mii.CycleString([]ddg.Edge{e}) == want {
				edges, found = append(edges, e), true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("recurrence %s: no edge %s in the loop's dependence graph", cyc, want)
		}
		from = to
	}
	if from != first {
		return nil, fmt.Errorf("recurrence %s does not close", cyc)
	}
	return edges, nil
}

// bindsAt reports whether the cycle rules out initiation interval ii:
// its delays exceed ii times its iteration distance.
func bindsAt(cyc []ddg.Edge, ii int64) bool {
	var delay, dist int64
	for _, e := range cyc {
		delay += e.Delay
		dist += e.Dist
	}
	return delay-ii*dist > 0
}

// claimVerifier checks claims, transforming each program once.
type claimVerifier struct {
	results map[string][]*core.Result // by program source
}

func (v *claimVerifier) verify(src, key string) error {
	if v.results == nil {
		v.results = map[string][]*core.Result{}
	}
	results, ok := v.results[src]
	if !ok {
		prog, err := source.Parse(src)
		if err != nil {
			return err
		}
		if _, results, err = core.TransformProgram(prog, core.DefaultOptions()); err != nil {
			return err
		}
		v.results[src] = results
	}
	return verifyClaim(key, results)
}
