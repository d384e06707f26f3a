package exact

import (
	"errors"
	"testing"

	"slms/internal/machine"
	"slms/internal/sched"
)

// FuzzExactScheduler decodes an arbitrary byte stream into a dependence
// graph, a machine shape and a candidate II, then holds the exact
// backend to its contract: never panic, never return a schedule that
// fails sched.Check, never return a certificate that fails Recheck, and
// on instances small enough to brute-force, never disagree with the
// independent residue-enumeration oracle.
func FuzzExactScheduler(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 1, 2, 0, 1, 0, 1, 2, 1, 1, 1})
	f.Add([]byte{2, 3, 2, 2, 2, 4, 0, 1, 0, 2, 1, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{4, 2, 1, 1, 1, 1, 0, 1, 1, 1, 1, 2, 2, 3, 0, 2, 3, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d, ii, ok := decodeInstance(data)
		if !ok {
			return
		}
		s := &Sched{Budget: 50_000}
		sc, err := s.Schedule(g, d, ii)
		switch {
		case sc != nil:
			if cerr := sched.Check(g, d, sc); cerr != nil {
				t.Fatalf("unverifiable schedule: %v\nnodes=%+v edges=%+v ii=%d units=%v iw=%d",
					cerr, g.Nodes, g.Edges, ii, d.Units, d.IssueWidth)
			}
		default:
			var u *sched.Unsat
			var bd *sched.Budget
			switch {
			case errors.As(err, &u):
				if ii < 1 {
					return // trivial refusal of a nonsensical II, not a certificate
				}
				if rerr := u.Recheck(g, d); rerr != nil {
					t.Fatalf("certificate does not recheck: %v\nnodes=%+v edges=%+v ii=%d",
						rerr, g.Nodes, g.Edges, ii)
				}
			case errors.As(err, &bd):
				// A budget cut is a legal outcome; nothing to verify.
				return
			default:
				t.Fatalf("exact backend failed without proof or budget: %v", err)
			}
		}
		// Small instances: cross-check the verdict against the oracle.
		if g.N() <= 4 && ii <= 4 && len(g.Edges) <= 8 {
			want := bruteFeasible(g, d, ii)
			got := sc != nil
			var bd *sched.Budget
			if errors.As(err, &bd) {
				return // cut before deciding; no verdict to compare
			}
			if got != want {
				t.Fatalf("verdict %v, oracle %v\nnodes=%+v edges=%+v ii=%d units=%v iw=%d",
					got, want, g.Nodes, g.Edges, ii, d.Units, d.IssueWidth)
			}
		}
	})
}

// FuzzProve holds sched.Prove to its witness rule against the
// residue-enumeration oracle: handed an II the oracle finds feasible as
// the heuristic's (checked) schedule, Prove must prove minimal exactly
// the oracle's smallest feasible II at or below it — a gap below the
// witness, proven-optimal at it — unless it declares a budget cut.
// Without a witness, searching up to that minimum, it must find it
// (exact-only). Every verdict must also keep the hand-back contract
// (see checkHandedBack).
func FuzzProve(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 1, 2, 0, 1, 0, 1, 2, 1, 1, 1})
	f.Add([]byte{2, 3, 2, 2, 2, 4, 0, 1, 0, 2, 1, 0, 1, 2})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{4, 2, 1, 1, 1, 1, 0, 1, 1, 1, 1, 2, 2, 3, 0, 2, 3, 0, 1, 1})
	f.Add([]byte{3, 6, 1, 1, 1, 3, 1, 2, 0, 1, 1, 2, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d, start, ok := decodeInstance(data)
		if !ok || g.N() > 4 || len(g.Edges) > 8 {
			return // beyond what the oracle enumerates quickly
		}
		// The witness: the first feasible II at or above the decoded one.
		heurII := 0
		for ii := max(start, 1); ii <= 6; ii++ {
			if bruteFeasible(g, d, ii) {
				heurII = ii
				break
			}
		}
		if heurII == 0 {
			return
		}
		want := heurII
		for ii := 1; ii < heurII; ii++ {
			if bruteFeasible(g, d, ii) {
				want = ii
				break
			}
		}
		o := sched.Prove(g, d, &Sched{Budget: 50_000}, heurII, heurII+g.N()+8)
		checkHandedBack(t, g, d, o)
		if o.Verdict == sched.VerdictBudget {
			return // cut before deciding; no minimum to compare
		}
		verdict := sched.VerdictOptimal
		if want < heurII {
			verdict = sched.VerdictGap
		}
		if o.Verdict != verdict || o.ExactII != want || o.HeurII != heurII || o.Gap != heurII-want {
			t.Fatalf("Prove(heurII=%d) = %+v, oracle minimum %d\nnodes=%+v edges=%+v units=%v iw=%d",
				heurII, o, want, g.Nodes, g.Edges, d.Units, d.IssueWidth)
		}

		o = sched.Prove(g, d, &Sched{Budget: 50_000}, 0, want)
		checkHandedBack(t, g, d, o)
		if o.Verdict != sched.VerdictBudget && (o.Verdict != sched.VerdictExactOnly || o.ExactII != want) {
			t.Fatalf("Prove(no witness, maxII=%d) = %+v, want exact-only at the oracle minimum\nnodes=%+v edges=%+v units=%v iw=%d",
				want, o, g.Nodes, g.Edges, d.Units, d.IssueWidth)
		}
	})
}

// checkHandedBack holds Prove's hand-back contract: a schedule comes
// back exactly with the gap and exact-only verdicts — the ones where
// the caller holds none at ExactII — at ExactII, and passes sched.Check.
func checkHandedBack(t *testing.T, g *sched.Graph, d *machine.Desc, o *sched.Optimality) {
	t.Helper()
	if want := o.Verdict == sched.VerdictGap || o.Verdict == sched.VerdictExactOnly; (o.Schedule != nil) != want {
		t.Fatalf("verdict %+v hands back schedule %+v", o, o.Schedule)
	}
	if o.Schedule == nil {
		return
	}
	if o.Schedule.II != o.ExactII {
		t.Fatalf("handed-back schedule at II=%d, ExactII %d", o.Schedule.II, o.ExactII)
	}
	if err := sched.Check(g, d, o.Schedule); err != nil {
		t.Fatalf("handed-back schedule fails the check: %v\nnodes=%+v edges=%+v units=%v iw=%d",
			err, g.Nodes, g.Edges, d.Units, d.IssueWidth)
	}
}

// decodeInstance builds a bounded instance from fuzz bytes:
// [n, ii, intU, fpU, memU, iw, (from,to,dist,lat)*]. Every field is
// reduced modulo a small range so all byte streams decode.
func decodeInstance(data []byte) (*sched.Graph, *machine.Desc, int, bool) {
	if len(data) < 6 {
		return nil, nil, 0, false
	}
	n := int(data[0])%6 + 1
	ii := int(data[1]) % 7 // 0 is a legal probe: the backend must refuse it gracefully
	d := &machine.Desc{
		Name:       "fuzz",
		IssueWidth: int(data[5]) % 5, // 0 exercises the normalization path
		Units:      [4]int{int(data[2]) % 3, int(data[3]) % 3, int(data[4]) % 3, 1},
		Lat:        machine.Lat{IntOp: 1, FloatOp: 1, Load: 1, Store: 1, Branch: 1},
		IntRegs:    64, FPRegs: 64,
	}
	g := &sched.Graph{Nodes: make([]sched.Node, n)}
	for i := range g.Nodes {
		b := byte(0)
		if 6+i < len(data) {
			b = data[6+i]
		}
		g.Nodes[i] = sched.Node{FU: machine.FU(int(b) % 3), Lat: int(b)%4 + 1}
	}
	rest := data[6:]
	for len(rest) >= 4 && len(g.Edges) < 3*n {
		g.Edges = append(g.Edges, sched.Edge{
			From: int(rest[0]) % n,
			To:   int(rest[1]) % n,
			Dist: int64(rest[2]) % 4,
			Lat:  int64(rest[3])%4 + 1,
		})
		rest = rest[4:]
	}
	return g, d, ii, true
}
