package sched

import (
	"errors"
	"fmt"

	"slms/internal/machine"
)

// Optimality verdicts. Every corpus loop the prover visits gets exactly
// one of these.
const (
	// VerdictOptimal: the heuristic's II is proven minimal — every
	// smaller II carries an UNSAT certificate (or is below a lower
	// bound that is its own certificate).
	VerdictOptimal = "proven-optimal"
	// VerdictGap: the exact backend scheduled at a strictly smaller II
	// than the heuristic, with an UNSAT certificate at that II−1.
	VerdictGap = "gap"
	// VerdictBudget: the exact search ran out of budget before either
	// finding a schedule or refuting the II it was probing.
	VerdictBudget = "budget-exhausted"
	// VerdictExactOnly: the heuristic produced no schedule at all but
	// the exact backend found one (and proved it minimal).
	VerdictExactOnly = "exact-only"
	// VerdictInfeasible: no II up to the search bound admits a
	// schedule; the certificate names the binding recurrence.
	VerdictInfeasible = "infeasible"
)

// Optimality is the prover's verdict on one loop: how the heuristic's
// II compares to the proven-minimal one.
type Optimality struct {
	Verdict string `json:"verdict"`
	// HeurII is the heuristic's achieved II (0 = it produced none).
	HeurII int `json:"heur_ii,omitempty"`
	// ExactII is the proven-minimal II (0 = none proven within the
	// budget or bound). Below HeurII its witness is the exact backend's
	// schedule; at HeurII it is the heuristic's checked schedule.
	ExactII int `json:"exact_ii,omitempty"`
	// Gap is HeurII − ExactII when the exact backend strictly wins.
	Gap int `json:"gap,omitempty"`
	// Cert describes why ExactII−1 (or every probed II) is infeasible.
	Cert string `json:"cert,omitempty"`
	// Visited is the branch-and-bound effort the proof spent.
	Visited int `json:"visited,omitempty"`
	// Schedule is the exact backend's schedule at ExactII, set only for
	// the gap and exact-only verdicts — the ones where the caller holds
	// no schedule at that II. The backend's word alone: callers check it.
	Schedule *Schedule `json:"-"`
}

// Prove establishes the minimal feasible II of the graph with an exact
// backend and compares it against the heuristic's heurII. A positive
// heurII means the caller holds a schedule at heurII that passed Check:
// that schedule is the feasibility witness at heurII, so the exact
// search only has to refute the IIs below it. Prove probes from the
// analytic lower bound up to heurII−1; the first probe that schedules
// is the proven minimum (a gap), and when every probe is refuted — or
// the lower bound already equals heurII — heurII itself is proven
// optimal. heurII = 0 (the heuristic found nothing) searches up to
// maxII instead. ex must be exact: a failure at an II is an *Unsat
// proof or a *Budget cut. A budget cut, or any other failure, ends the
// proof with VerdictBudget.
func Prove(g *Graph, d *machine.Desc, ex Scheduler, heurII, maxII int) *Optimality {
	n := g.N()
	if n == 0 {
		return &Optimality{Verdict: VerdictOptimal, HeurII: heurII, ExactII: heurII,
			Cert: "empty body"}
	}
	// bound is the largest II that may turn out minimal and hi the
	// largest the exact search probes: heurII is witnessed, never
	// probed; without a witness both are maxII.
	bound, hi := heurII, heurII-1
	if heurII <= 0 {
		bound = max(maxII, 1)
		hi = bound
	}

	rec := g.RecMII()
	if rec == 0 || rec > bound {
		// No II up to the bound beats the recurrence: infeasible, and
		// the positive cycle at the bound is the certificate.
		o := &Optimality{Verdict: VerdictInfeasible, HeurII: heurII}
		if u := cycleUnsat(g, bound); u != nil {
			o.Cert = u.Describe()
		}
		return o
	}
	lb := max(ResourceMinII(g, d), rec)
	lastUnsat := BoundUnsat(g, d, lb-1)
	visited := 0
	// settle reports ii as the proven minimum: every smaller II is
	// refuted, lastUnsat being the refutation of ii−1, and s is the
	// exact schedule there (nil at the witness).
	settle := func(ii int, s *Schedule) *Optimality {
		o := &Optimality{HeurII: heurII, ExactII: ii, Visited: visited, Schedule: s}
		if ii == 1 {
			o.Cert = "II=1 is the unconditional minimum"
		} else if lastUnsat != nil {
			o.Cert = lastUnsat.Describe()
		}
		switch {
		case heurII == 0:
			o.Verdict = VerdictExactOnly
		case ii < heurII:
			o.Verdict = VerdictGap
			o.Gap = heurII - ii
		default:
			o.Verdict = VerdictOptimal
		}
		return o
	}
	for ii := lb; ii <= hi; ii++ {
		s, err := ex.Schedule(g, d, ii)
		if s != nil {
			visited += s.Visited
			return settle(ii, s)
		}
		var u *Unsat
		var bd *Budget
		switch {
		case errors.As(err, &u):
			lastUnsat = u
			visited += u.Visited
		case errors.As(err, &bd):
			return &Optimality{Verdict: VerdictBudget, HeurII: heurII,
				Visited: visited + bd.Visited,
				Cert:    fmt.Sprintf("budget cut while probing II=%d (%d nodes expanded)", ii, visited+bd.Visited)}
		default:
			// A failure that is no proof (a heuristic's ErrGiveUp)
			// proves nothing; surface it rather than mislabeling.
			return &Optimality{Verdict: VerdictBudget, HeurII: heurII, Visited: visited,
				Cert: fmt.Sprintf("exact backend failed without a proof at II=%d: %v", ii, err)}
		}
	}
	if heurII > 0 {
		// Every II below the witness is refuted (or below the bound).
		return settle(heurII, nil)
	}
	// No witness and every II up to maxII refuted.
	o := &Optimality{Verdict: VerdictInfeasible, Visited: visited}
	if lastUnsat != nil {
		o.Cert = lastUnsat.Describe()
	}
	return o
}
