package obs

import "sync"

// Decision-record codes. The codes are stable identifiers (SLMS2xx, the
// decision range; internal/analysis owns SLMS0xx/1xx for verification
// diagnostics): tooling may match on them, so a code is never renumbered
// or reused. New codes extend the list.
const (
	// DecApplied: the loop was accepted and pipelined.
	DecApplied = "SLMS200"
	// DecNonCanonical: the loop is not a canonical counted loop
	// (non-unit induction structure, unsupported bounds).
	DecNonCanonical = "SLMS210"
	// DecUnsupportedBody: the body could not be if-converted or contains
	// statements SLMS cannot schedule.
	DecUnsupportedBody = "SLMS211"
	// DecAnalysisFailed: dependence analysis failed on the body.
	DecAnalysisFailed = "SLMS212"
	// DecMemRefFilter: skipped by the §4 bad-case filter
	// (LS/(LS+AO) >= threshold).
	DecMemRefFilter = "SLMS220"
	// DecArithFilter: skipped by the §11 refinement (too few arithmetic
	// operations per array reference).
	DecArithFilter = "SLMS221"
	// DecEmptyBody: the loop body has no operations to schedule.
	DecEmptyBody = "SLMS222"
	// DecUnprovenDeps: dependence distances could not be proven and
	// speculation is off.
	DecUnprovenDeps = "SLMS230"
	// DecNoValidII: no II < number of MIs exists after the decomposition
	// budget.
	DecNoValidII = "SLMS231"
	// DecDecomposeFailed: no valid II and the decomposition step could
	// not split any MI.
	DecDecomposeFailed = "SLMS232"
	// DecVerifyRefuted: the translation validator refuted an applied
	// schedule (only with the -verify gate on).
	DecVerifyRefuted = "SLMS240"
)

// Decision verdicts.
const (
	VerdictAccept = "accept"
	VerdictSkip   = "skip"
	VerdictRefute = "refute"
)

// Decision is one per-loop scheduling decision: why a loop was
// pipelined, skipped, or (under the verify gate) refuted. Attrs carries
// the measured evidence — filter ratio, MII/II, search iterations, MVE
// degree — so a decision is diagnosable without re-running the
// pipeline. It is also the wire form slmsd replies with. Where and when
// it was made belong to the span it is an event of: the loop's
// position is the span's name (loop@line:col) and core.Result.Pos.
type Decision struct {
	Code    string         `json:"code"`
	Verdict string         `json:"verdict"`
	Reason  string         `json:"reason,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// The slms.decisions.<verdict> counters, each registered on its
// verdict's first decision.
var (
	acceptCount = sync.OnceValue(func() *Counter { return CounterName("slms.decisions." + VerdictAccept) })
	skipCount   = sync.OnceValue(func() *Counter { return CounterName("slms.decisions." + VerdictSkip) })
	refuteCount = sync.OnceValue(func() *Counter { return CounterName("slms.decisions." + VerdictRefute) })
)

// RecordDecision bumps d's verdict counter and files d as an event of
// sp, the span it was made under. With tracing disabled sp is nil and
// only the counter moves.
func RecordDecision(sp *Span, d Decision) {
	switch d.Verdict {
	case VerdictAccept:
		acceptCount().Add(1)
	case VerdictSkip:
		skipCount().Add(1)
	case VerdictRefute:
		refuteCount().Add(1)
	}
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.decs = append(sp.decs, d)
	sp.mu.Unlock()
}

// Decisions returns a copy of the decisions made under the span.
func (s *Span) Decisions() []Decision {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Decision(nil), s.decs...)
}

// Decisions returns every decision the tracer's spans hold, in span
// creation order.
func (t *Tracer) Decisions() []Decision {
	var out []Decision
	for _, s := range t.Spans() {
		out = append(out, s.Decisions()...)
	}
	return out
}
