package dep

import (
	"fmt"

	"slms/internal/dep/omega"
	"slms/internal/sem"
	"slms/internal/source"
)

// Kind classifies a dependence edge.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write → read (true dependence)
	Anti               // read → write
	Output             // write → write
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return "?"
}

// Edge is a dependence between two multi-instructions: instance
// (To, i+Dist) depends on instance (From, i).
type Edge struct {
	Kind    Kind
	From    int // MI index in body order
	To      int // MI index in body order
	Dist    int64
	Var     string // the array or scalar causing the dependence
	Unknown bool   // distance is conservative, not exact
}

// String renders the edge for diagnostics.
func (e Edge) String() string {
	u := ""
	if e.Unknown {
		u = "?"
	}
	return fmt.Sprintf("%s MI%d->MI%d dist=%d%s (%s)", e.Kind, e.From, e.To, e.Dist, u, e.Var)
}

// ScalarClass classifies a scalar's role inside the loop body.
type ScalarClass int

// Scalar classes.
const (
	// Invariant scalars are read but never written in the loop.
	Invariant ScalarClass = iota
	// Variant scalars are written every iteration and all their reads are
	// reached by a same-iteration write (no upward-exposed read). MVE or
	// scalar expansion can rename them freely.
	Variant
	// Induction scalars are updated only by x = x ± const and read
	// (possibly exposed) elsewhere; MVE can split them into per-copy
	// chains with a scaled step.
	Induction
	// Recurrence scalars carry a value across iterations in a way MVE
	// cannot rename (general accumulators). Reductions (s += e, s = s op e,
	// min/max patterns) are a recognizable sub-case.
	Recurrence
)

// String renders the class.
func (c ScalarClass) String() string {
	switch c {
	case Invariant:
		return "invariant"
	case Variant:
		return "variant"
	case Induction:
		return "induction"
	case Recurrence:
		return "recurrence"
	}
	return "?"
}

// ScalarInfo describes one scalar used by the loop body.
type ScalarInfo struct {
	Name         string
	Class        ScalarClass
	Defs         []int // MI indices that may write it
	Reads        []int // MI indices that may read it
	ExposedReads []int // reads not preceded by an unconditional same-iteration write
	NumRefs      int   // total occurrence count (reads + writes), for the §4 filter
	// InductionStep is the per-iteration increment for Induction scalars.
	InductionStep int64
	// Reduction describes the reduction op for recognizable reductions
	// (OpAdd for s += e, OpMul for s *= e); OpNone otherwise. MinMax is
	// set for the predicated min/max idiom.
	Reduction source.Op
}

// Renamable reports whether MVE/scalar expansion can rename the scalar.
func (s *ScalarInfo) Renamable() bool {
	return s.Class == Variant || s.Class == Induction
}

// Analysis is the dependence information for one loop body.
type Analysis struct {
	LoopVar string
	// Step is the loop increment all iteration distances are relative to.
	Step    int64
	Edges   []Edge
	Scalars map[string]*ScalarInfo
	// Refs counts: loads+stores and arithmetic ops, for the §4 filter.
	MemRefs  int
	ArithOps int
	NumMIs   int
	// MIs are the analyzed statements, in MI order.
	MIs []source.Stmt
	// Precision summarizes what the exact solver sharpened relative to
	// the legacy conservative subscript test (zeroed under NoSolver).
	Precision Precision
}

// HasUnknown reports whether any edge has an unknown distance.
func (a *Analysis) HasUnknown() bool {
	for _, e := range a.Edges {
		if e.Unknown {
			return true
		}
	}
	return false
}

// UnknownEdges counts edges with an unknown (conservative) distance.
func (a *Analysis) UnknownEdges() int {
	n := 0
	for _, e := range a.Edges {
		if e.Unknown {
			n++
		}
	}
	return n
}

// ref is one array or scalar access inside an MI.
type ref struct {
	mi    int
	name  string
	write bool
	cond  bool     // the access is control-dependent (predicated)
	subs  []Affine // affine view of each subscript (arrays only)
	order int      // global collection order, for d==0 tie-breaking
}

// Options tunes the analysis.
type Options struct {
	// IgnoreScalars lists scalar names to exclude from dependence
	// generation entirely (used for speculation experiments).
	IgnoreScalars map[string]bool
	// Step is the canonical loop's increment (0 means 1). Subscript
	// distances are computed in loop-variable units and must be divided
	// by the step to become iteration distances; distances that are not
	// multiples of the step prove independence (the iterations never
	// touch those offsets).
	Step int64
	// Lo and Hi are the canonical loop's bound expressions
	// (i = Lo; i < Hi; i += Step). When supplied, the exact solver uses
	// them to bound the iteration space (trip-count kills) and to fold
	// constant lower bounds into subscripts.
	Lo, Hi source.Expr
	// Ranges supplies symbolic intervals for loop-invariant scalars and
	// declared array extents (see omega.FromTable). Nil is valid and
	// means nothing is known.
	Ranges *omega.Ranges
	// NoSolver disables the exact Omega-lite solver, restoring the
	// legacy conservative subscript test (regression comparisons and
	// precision accounting).
	NoSolver bool
}

// Analyze computes the dependence edges between the multi-instructions
// of a loop body. mis are the top-level statements of the body in source
// order; loopVar is the induction variable of the canonical loop; tab
// resolves which names are arrays.
func Analyze(mis []source.Stmt, loopVar string, tab *sem.Table, opts Options) (*Analysis, error) {
	step := opts.Step
	if step == 0 {
		step = 1
	}
	a := &Analysis{LoopVar: loopVar, Step: step, Scalars: map[string]*ScalarInfo{}, NumMIs: len(mis), MIs: mis}
	col := &collector{loopVar: loopVar, tab: tab}
	for i, mi := range mis {
		if err := col.stmt(mi, i, false); err != nil {
			return nil, err
		}
	}
	a.MemRefs = col.memRefs
	a.ArithOps = col.arithOps

	// ---- scalar classification ----
	// Classified before the array pass: the solver's induction-variable
	// promotion consults scalar classes. (Scalar edges are still emitted
	// after the array pass, preserving edge order.)
	if err := a.classifyScalars(col, mis, opts); err != nil {
		return nil, err
	}

	writtenScalars := map[string]bool{}
	for _, r := range col.refs {
		if len(r.subs) == 0 && r.write {
			writtenScalars[r.name] = true
		}
	}

	// ---- array dependences ----
	// rawRefs keep the original affine view (the solver promotes
	// induction scalars itself); arrayRefs carry the demoted view the
	// legacy test needs.
	var rawRefs, arrayRefs []ref
	for _, r := range col.refs {
		if len(r.subs) > 0 {
			rawRefs = append(rawRefs, r)
			// A subscript that mentions a written (non-induction-variable)
			// scalar is not loop-invariant in the affine sense; demote it.
			arrayRefs = append(arrayRefs, demoteVaryingSyms(r, writtenScalars))
		}
	}
	var sc *solveCtx
	if !opts.NoSolver {
		sc = a.newSolveCtx(rawRefs, opts)
	}
	for i := 0; i < len(arrayRefs); i++ {
		for j := i; j < len(arrayRefs); j++ {
			r1, r2 := arrayRefs[i], arrayRefs[j]
			if r1.name != r2.name || (!r1.write && !r2.write) {
				continue
			}
			if i == j {
				continue // a single reference cannot conflict with itself
			}
			a.addArrayPair(r1, r2, sc, i, j)
		}
	}

	// ---- scalar dependences ----
	a.scalarEdges(col, opts)
	a.dedup()
	return a, nil
}

// demoteVaryingSyms marks subscripts non-affine when they mention scalars
// written inside the loop (e.g. A[lw] where lw++ runs in the body —
// unless lw is a recognized induction handled elsewhere, the subscript
// is not a static affine function of the loop variable).
func demoteVaryingSyms(r ref, written map[string]bool) ref {
	subs := make([]Affine, len(r.subs))
	copy(subs, r.subs)
	r.subs = subs // the raw view must keep its OK flags
	for k := range r.subs {
		for n := range r.subs[k].Syms {
			if written[n] {
				r.subs[k].OK = false
			}
		}
	}
	return r
}

// legacyCombine runs the conservative all-dimensions combine: every
// dimension must be able to collide, and dimensions with the loop
// variable must agree on the distance (in loop-variable units).
func legacyCombine(r1, r2 ref) (DistResult, int64) {
	res := DistAlways
	var dist int64
	haveExact := false
	for k := range r1.subs {
		dr, d := SubscriptDistance(r1.subs[k], r2.subs[k])
		switch dr {
		case DistNone:
			return DistNone, 0 // provably independent
		case DistUnknown:
			res = DistUnknown
		case DistExact:
			if haveExact && d != dist {
				return DistNone, 0 // inconsistent required distances
			}
			haveExact = true
			dist = d
			if res == DistAlways {
				res = DistExact
			}
		case DistAlways:
			// no constraint from this dimension
		}
	}
	return res, dist
}

// emitLegacy emits the edges the legacy verdict implies.
func (a *Analysis) emitLegacy(r1, r2 ref, dr DistResult, dist int64) {
	switch dr {
	case DistNone:
		return
	case DistUnknown:
		// Conservative: dependence at distance 0 and at distance 1 in both
		// directions, flagged unknown so the scheduler can refuse.
		a.emit(r1, r2, 0, true)
		a.emit(r1, r2, 1, true)
		a.emit(r2, r1, 1, true)
	case DistAlways:
		// Same element every iteration (no loop-variable in any subscript):
		// behaves like an unrenamable scalar held in memory.
		a.emit(r1, r2, 0, false)
		a.emit(r1, r2, 1, false)
		a.emit(r2, r1, 1, false)
	case DistExact:
		// dist is in loop-variable units; convert to iterations.
		if dist%a.Step != 0 {
			return // the stride never lands on this offset: independent
		}
		a.emit(r1, r2, dist/a.Step, false)
	}
}

// addArrayPair emits the dependence edges (if any) between two array
// refs: exact-solver verdict when enabled, legacy combine otherwise.
// i1, i2 index the solver context's form tables.
func (a *Analysis) addArrayPair(r1, r2 ref, sc *solveCtx, i1, i2 int) {
	lk, ld := legacyCombine(r1, r2)
	if sc == nil {
		a.emitLegacy(r1, r2, lk, ld)
		return
	}
	res, used := sc.solvePair(r1, r2, i1, i2)
	a.recordPrecision(r1, r2, sc, i1, i2, lk, res, used)
	switch res.Kind {
	case omega.KindIndependent:
		return
	case omega.KindExact:
		a.emit(r1, r2, res.Dist, false)
	case omega.KindAlways:
		a.emit(r1, r2, 0, false)
		a.emit(r1, r2, 1, false)
		a.emit(r2, r1, 1, false)
	case omega.KindBounded:
		// Emitting the minimum distance per direction subsumes the whole
		// set: the schedule constraint II·d + (v−u) ≥ delay is monotone
		// in d, so the tightest (smallest) distance dominates.
		if res.HasZero {
			a.emit(r1, r2, 0, false)
		}
		if res.HasPos {
			a.emit(r1, r2, res.PosMin, false)
		}
		if res.HasNeg {
			a.emit(r1, r2, -res.NegMin, false)
		}
	default: // KindUnknown
		a.emit(r1, r2, 0, true)
		a.emit(r1, r2, 1, true)
		a.emit(r2, r1, 1, true)
	}
}

// recordPrecision updates the precision accounting for one pair.
func (a *Analysis) recordPrecision(r1, r2 ref, sc *solveCtx, i1, i2 int, lk DistResult, res omega.Result, used bool) {
	a.Precision.Pairs++
	if lk == DistUnknown {
		a.Precision.LegacyUnknown++
		switch res.Kind {
		case omega.KindUnknown:
			a.Precision.Unresolved++
		default:
			a.Precision.Resolved++
			switch res.Kind {
			case omega.KindIndependent:
				a.Precision.Independent++
			case omega.KindExact:
				a.Precision.Exact++
			case omega.KindBounded:
				a.Precision.Bounded++
			}
		}
	}
	killed := lk == DistExact && res.Kind == omega.KindIndependent
	if killed {
		a.Precision.Killed++
	}
	if used && ((lk == DistUnknown && res.Kind != omega.KindUnknown) || killed) {
		a.Precision.Notes = append(a.Precision.Notes, Resolution{
			Var: r1.name, MI1: r1.mi, MI2: r2.mi,
			Write1: r1.write, Write2: r2.write,
			F1: sc.forms[i1], F2: sc.forms[i2],
			OK1: sc.oks[i1], OK2: sc.oks[i2],
			Trip: sc.trip, Legacy: lk.String(), Res: res,
		})
	}
}

// emit adds one edge given raw distance d meaning: r2 at iteration i+d
// touches the element r1 touches at iteration i. Negative d flips the
// direction; d == 0 orders by source position.
func (a *Analysis) emit(r1, r2 ref, d int64, unknown bool) {
	src, dst := r1, r2
	if d < 0 {
		src, dst, d = r2, r1, -d
	} else if d == 0 {
		if r1.mi == r2.mi {
			return // intra-MI: the MI executes atomically
		}
		if r1.mi > r2.mi || (r1.mi == r2.mi && r1.order > r2.order) {
			src, dst = r2, r1
		}
	}
	kind := Flow
	switch {
	case src.write && dst.write:
		kind = Output
	case src.write && !dst.write:
		kind = Flow
	case !src.write && dst.write:
		kind = Anti
	default:
		return // read-read
	}
	a.Edges = append(a.Edges, Edge{
		Kind: kind, From: src.mi, To: dst.mi, Dist: d, Var: src.name, Unknown: unknown,
	})
}

func (a *Analysis) dedup() {
	type key struct {
		k        Kind
		from, to int
		d        int64
		v        string
		u        bool
	}
	seen := map[key]bool{}
	out := a.Edges[:0]
	for _, e := range a.Edges {
		k := key{e.Kind, e.From, e.To, e.Dist, e.Var, e.Unknown}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	a.Edges = out
}
