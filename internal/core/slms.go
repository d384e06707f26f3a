package core

import (
	"errors"
	"fmt"

	"slms/internal/ddg"
	"slms/internal/dep"
	"slms/internal/dep/omega"
	"slms/internal/mii"
	"slms/internal/obs"
	"slms/internal/sem"
	"slms/internal/source"
)

// Options controls the SLMS transformation.
type Options struct {
	// Filter applies the §4 bad-case filter before scheduling.
	Filter bool
	// MemRefThreshold is the memory-ref ratio above which a loop is
	// skipped (paper value 0.85). Zero means 0.85.
	MemRefThreshold float64
	// Speculate allows scheduling across unproven dependences (§2: the
	// user acknowledges speculative operations).
	Speculate bool
	// Expansion picks MVE (kernel unrolling + register renaming) or
	// scalar expansion (temporary arrays) for cross-stage variants.
	Expansion ExpandMode
	// MaxDecompositions bounds the §3.2 decomposition loop (default 8).
	MaxDecompositions int
	// MinArithPerMemRef, when positive, adds the paper's §11 filter
	// refinement: SLMS is applied only to loops with at least this many
	// arithmetic operations per array reference ("applying SLMS to loops
	// with more than six arithmetic operations per each array reference"
	// eliminated almost all bad cases).
	MinArithPerMemRef float64
	// MinTrip disables the fallback guard when the caller can prove the
	// loop always runs at least `stages` iterations (keeps the output
	// closest to the paper's listings). When false a guard+fallback is
	// emitted, which is always safe.
	NoGuard bool
	// NoSolver disables the exact dependence solver (internal/dep/omega),
	// restoring the legacy conservative subscript test. Used for
	// precision regression comparisons.
	NoSolver bool
}

// DefaultOptions returns the configuration used in the paper's
// experiments: filter on at 0.85, MVE expansion, guarded output.
func DefaultOptions() Options {
	return Options{Filter: true, MemRefThreshold: 0.85, Expansion: ExpandMVE, MaxDecompositions: 8}
}

// Result describes one SLMS application.
type Result struct {
	// Applied is false when the loop was skipped (filter, no valid II,
	// unsupported shape); Reason then explains why.
	Applied bool
	Reason  string
	// Loop is the loop as written; the transform never modifies it.
	Loop *source.For
	// Pos is the source position of the original loop, for diagnostics.
	Pos source.Pos

	II             int64
	MIs            int
	Stages         int
	Unroll         int // MVE unroll factor (1 = none)
	Decompositions int
	Mode           ExpandMode
	Filter         FilterResult
	// SearchIters counts the candidate IIs tested by the II search,
	// summed over all decomposition rounds.
	SearchIters int
	// Decision is the loop's decision record: the stable code, verdict
	// (accept/skip) and measured evidence (filter ratio, MII/II, search
	// iterations, MVE degree). Always populated, also filed with the
	// active tracer (see internal/obs).
	Decision obs.Decision

	// Replacement is the statement that replaces the original loop
	// (a Block containing declarations, the guard, and the pipelined
	// loop). Nil when not applied.
	Replacement source.Stmt
	// Verify carries the metadata a translation validator needs to
	// re-check the schedule (see internal/analysis). Set when Applied.
	Verify *VerifyInfo
	// Dep is the loop's final dependence analysis (with precision
	// accounting), populated whenever analysis succeeded — including
	// loops later skipped, so diagnostics can explain what blocked them.
	Dep *dep.Analysis
	// Log records the algorithm's steps for the interactive SLC view.
	Log []string
}

func (r *Result) logf(format string, args ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, args...))
}

// decide finalizes the loop's decision record: stored on the result and
// filed with the active tracer. attrs may be nil.
func (r *Result) decide(sp *obs.Span, code, verdict string, attrs map[string]any) {
	if attrs == nil {
		attrs = map[string]any{}
	}
	if r.Filter.LS+r.Filter.AO > 0 {
		attrs["filter_ratio"] = r.Filter.MemRefRatio
		attrs["ls"] = r.Filter.LS
		attrs["ao"] = r.Filter.AO
	}
	if r.SearchIters > 0 {
		attrs["search_iterations"] = r.SearchIters
	}
	r.Decision = obs.Decision{
		Code: code, Verdict: verdict, Loop: r.Pos.String(),
		Reason: r.Reason, Attrs: attrs,
	}
	sp.Attr("decision", code)
	obs.RecordDecision(sp, r.Decision)
}

// Transform applies source-level modulo scheduling to one canonical
// counted loop. tab is the program's symbol table (used to resolve array
// ranks and to mint fresh temporaries). The original loop is not
// modified; on success Result.Replacement holds the transformed code.
func Transform(f *source.For, tab *sem.Table, opts Options) (*Result, error) {
	return TransformSpan(nil, f, tab, opts)
}

// TransformSpan is Transform under a parent trace span: the loop gets a
// child span annotated with the decision evidence, and each algorithm
// phase (canonicalize, if-conversion, dependence analysis, filter, II
// search, kernel emission) a nested span plus a phase histogram entry.
func TransformSpan(parent *obs.Span, f *source.For, tab *sem.Table, opts Options) (*Result, error) {
	return transformSpanGuards(parent, f, tab, opts, nil)
}

// transformSpanGuards is TransformSpan with the if-conditions enclosing
// the loop site: conditions known true at loop entry refine the
// symbolic ranges the dependence solver reasons over.
func transformSpanGuards(parent *obs.Span, f *source.For, tab *sem.Table, opts Options, guards []source.Expr) (*Result, error) {
	res := &Result{Mode: opts.Expansion, Unroll: 1, Loop: f, Pos: f.Pos()}
	sp := parent.Child("loop@" + res.Pos.String())
	defer sp.End()
	if opts.MemRefThreshold == 0 {
		opts.MemRefThreshold = 0.85
	}
	if opts.MaxDecompositions == 0 {
		opts.MaxDecompositions = 8
	}

	loop, err := sem.Canonicalize(f)
	if err != nil {
		res.Reason = err.Error()
		res.decide(sp, obs.DecNonCanonical, obs.VerdictSkip, nil)
		return res, nil
	}
	res.logf("canonical loop: var=%s step=%d", loop.Var, loop.Step)

	// Symbolic range environment for the exact dependence solver:
	// write-once constants and array extents from the table, refined by
	// guard conditions known true at loop entry.
	rg := omega.FromTable(tab)
	for _, g := range guards {
		rg = rg.WithGuard(g)
	}
	depOpts := dep.Options{
		Step: loop.Step, Lo: loop.Lo, Hi: loop.Hi,
		Ranges: rg, NoSolver: opts.NoSolver,
	}

	// Work on a deep copy of the body.
	work := source.CloneBlock(f.Body)

	// Step 2 (§5): source-level if-conversion.
	mis, predDecls, err := ifConvert(work.Stmts, tab)
	if err != nil {
		res.Reason = err.Error()
		res.decide(sp, obs.DecUnsupportedBody, obs.VerdictSkip, nil)
		return res, nil
	}
	var decls []source.Stmt
	for _, d := range predDecls {
		decls = append(decls, d)
	}
	if len(predDecls) > 0 {
		res.logf("if-conversion introduced %d predicate(s)", len(predDecls))
	}

	typeOfName := func(name string) source.Type {
		if s := tab.Lookup(name); s != nil && s.Type != source.TUnknown {
			return s.Type
		}
		return source.TFloat
	}

	// First analysis: classification + filter.
	depSp := sp.Child("dep")
	an, err := dep.Analyze(mis, loop.Var, tab, depOpts)
	depSp.End()
	if err != nil {
		res.Reason = err.Error()
		res.decide(sp, obs.DecAnalysisFailed, obs.VerdictSkip, nil)
		return res, nil
	}
	res.Dep = an

	// Step 1 (§5): bad-case filter.
	res.Filter = applyFilter(an, opts.MemRefThreshold, func(name string) bool {
		return typeOfName(name) == source.TBool
	})
	sp.Attr("filter_ratio", res.Filter.MemRefRatio)
	if opts.Filter && res.Filter.Skip {
		res.Reason = "filtered: " + res.Filter.Reason
		res.logf("%s", res.Reason)
		code := obs.DecMemRefFilter
		if res.Filter.LS+res.Filter.AO == 0 {
			code = obs.DecEmptyBody
		}
		res.decide(sp, code, obs.VerdictSkip,
			map[string]any{"threshold": opts.MemRefThreshold})
		return res, nil
	}
	if opts.MinArithPerMemRef > 0 {
		if fr, skip := applyArithFilter(an, opts.MinArithPerMemRef); skip {
			res.Filter = fr
			res.Reason = "filtered: " + fr.Reason
			res.logf("%s", res.Reason)
			res.decide(sp, obs.DecArithFilter, obs.VerdictSkip,
				map[string]any{"min_arith_per_memref": opts.MinArithPerMemRef})
			return res, nil
		}
	}

	// Step 3 (§5): rename multi defined-used variant scalars.
	variants := map[string]bool{}
	for name, si := range an.Scalars {
		if si.Class == dep.Variant {
			variants[name] = true
		}
	}
	renameDecls, renameFinal := renameMultiDef(mis, variants, tab, typeOfName)
	for _, d := range renameDecls {
		decls = append(decls, d)
	}
	if len(renameDecls) > 0 {
		res.logf("renamed %d multi-defined variant(s)", len(renameDecls))
		if an, err = dep.Analyze(mis, loop.Var, tab, depOpts); err != nil {
			res.Reason = err.Error()
			res.decide(sp, obs.DecAnalysisFailed, obs.VerdictSkip, nil)
			return res, nil
		}
		res.Dep = an
	}

	// Steps 4–5 (§5): find the MII, decomposing MIs as needed.
	miiSp := sp.Child("mii")
	var ii int64
	for {
		g := ddg.Build(an, true)
		var st mii.Stats
		ii, st, err = mii.FindStats(g, mii.Options{Speculate: opts.Speculate})
		res.SearchIters += st.Iterations
		if err == nil {
			break
		}
		if errors.Is(err, mii.ErrUnknownDeps) {
			miiSp.End()
			res.Reason = err.Error()
			res.logf("unproven dependences; SLMS not applied")
			res.decide(sp, obs.DecUnprovenDeps, obs.VerdictSkip, nil)
			return res, nil
		}
		if res.Decompositions >= opts.MaxDecompositions {
			miiSp.End()
			res.Reason = fmt.Sprintf("no valid II after %d decomposition(s)", res.Decompositions)
			res.logf("%s", res.Reason)
			res.decide(sp, obs.DecNoValidII, obs.VerdictSkip,
				map[string]any{"decompositions": res.Decompositions})
			return res, nil
		}
		newMIs, decl, at, derr := decompose(mis, loop.Var, loop.Step, tab, exprTypeOf(tab))
		if derr != nil {
			miiSp.End()
			res.Reason = fmt.Sprintf("no valid II and %v", derr)
			res.logf("%s", res.Reason)
			res.decide(sp, obs.DecDecomposeFailed, obs.VerdictSkip, nil)
			return res, nil
		}
		res.Decompositions++
		res.logf("decomposed MI %d introducing %s", at, decl.Name)
		mis = newMIs
		decls = append(decls, decl)
		if an, err = dep.Analyze(mis, loop.Var, tab, depOpts); err != nil {
			miiSp.End()
			res.Reason = err.Error()
			res.decide(sp, obs.DecAnalysisFailed, obs.VerdictSkip, nil)
			return res, nil
		}
		res.Dep = an
	}
	n := len(mis)
	res.MIs = n
	res.II = ii
	res.Stages = (n + int(ii) - 1) / int(ii)
	res.logf("II = %d with %d MIs (%d stages)", ii, n, res.Stages)
	miiSp.Attr("ii", ii).Attr("mis", n).Attr("iterations", res.SearchIters).
		Attr("decompositions", res.Decompositions)
	miiSp.End()

	// Defense in depth: the fixed schedule must satisfy every edge.
	if verr := validateAgainstDDG(an.Edges, ii); verr != nil {
		return nil, verr
	}

	// Step 6 (§5): build prologue/kernel/epilogue with MVE or scalar
	// expansion for cross-stage variants.
	emitSp := sp.Child("emit")
	defer emitSp.End()
	b := &builder{
		loop: loop, mis: mis, ii: ii, smax: res.Stages - 1,
		tab: tab, mode: opts.Expansion, u: 1,
		expand:     map[string][]string{},
		expandArr:  map[string]string{},
		inductions: map[string]*inductionSub{},
		varType:    typeOfName,
	}
	if err := b.planExpansion(an); err != nil {
		return nil, err
	}
	res.Unroll = b.u
	if b.u > 1 {
		res.logf("MVE: kernel unrolled %d times; %d variant(s) expanded", b.u, len(b.expand))
	}
	if len(b.expandArr) > 0 {
		res.logf("scalar expansion of %d variant(s)", len(b.expandArr))
	}
	if len(b.inductions) > 0 {
		res.logf("closed-form substitution of %d induction variable(s)", len(b.inductions))
	}

	pipelined := b.build()
	// Renamed multi-def chains: the original scalar's final value is the
	// last chain's value (the cleanup loop, when present, writes the
	// chain names too, so this restore comes last).
	for _, orig := range sortedKeys(renameFinal) {
		pipelined = append(pipelined, &source.Assign{
			LHS: source.Var(orig), Op: source.AEq, RHS: source.Var(renameFinal[orig]),
		})
	}
	decls = append(decls, b.decls...)

	var replacement source.Stmt
	if opts.NoGuard {
		replacement = &source.Block{Stmts: append(decls, pipelined...)}
	} else {
		orig := source.CloneStmt(f)
		guarded := &source.If{
			Cond: b.guardExpr(),
			Then: &source.Block{Stmts: pipelined},
			Else: &source.Block{Stmts: []source.Stmt{orig}},
		}
		replacement = &source.Block{Stmts: append(decls, guarded)}
	}
	res.Applied = true
	res.Replacement = replacement

	inds := make(map[string]InductionInfo, len(b.inductions))
	for name, s := range b.inductions {
		inds[name] = InductionInfo{Entry: s.entry, Step: s.step, DefMI: s.defMI}
	}
	res.Verify = &VerifyInfo{
		Loop: loop, Tab: tab, MIs: mis, Analysis: an, Ranges: rg,
		II: ii, Stages: res.Stages, Unroll: b.u, Mode: opts.Expansion,
		Expand: b.expand, ExpandArr: b.expandArr, Inductions: inds,
		RenameFinal: renameFinal,
		Guarded:     !opts.NoGuard, Speculate: opts.Speculate, Original: f,
	}
	sp.Attr("ii", ii).Attr("stages", res.Stages).Attr("mve_unroll", b.u)
	res.decide(sp, obs.DecApplied, obs.VerdictAccept, map[string]any{
		"ii": ii, "mis": n, "stages": res.Stages, "mve_unroll": b.u,
		"decompositions": res.Decompositions, "mode": fmt.Sprint(opts.Expansion),
	})
	return res, nil
}

// exprTypeOf returns a best-effort expression typer from the symbol table
// (used to type decomposition temporaries).
func exprTypeOf(tab *sem.Table) func(source.Expr) source.Type {
	var typ func(e source.Expr) source.Type
	typ = func(e source.Expr) source.Type {
		switch e := e.(type) {
		case *source.IntLit:
			return source.TInt
		case *source.FloatLit:
			return source.TFloat
		case *source.BoolLit:
			return source.TBool
		case *source.VarRef:
			if s := tab.Lookup(e.Name); s != nil {
				return s.Type
			}
		case *source.IndexExpr:
			if s := tab.Lookup(e.Name); s != nil {
				return s.Type
			}
		case *source.Unary:
			return typ(e.X)
		case *source.Binary:
			if e.Op.IsComparison() || e.Op == source.OpAnd || e.Op == source.OpOr {
				return source.TBool
			}
			xt, yt := typ(e.X), typ(e.Y)
			if xt == source.TFloat || yt == source.TFloat {
				return source.TFloat
			}
			if xt == source.TUnknown || yt == source.TUnknown {
				return source.TUnknown
			}
			return source.TInt
		case *source.CondExpr:
			return typ(e.A)
		case *source.Call:
			return source.TFloat
		}
		return source.TUnknown
	}
	return typ
}

// TransformProgram applies SLMS to every innermost canonical loop of the
// program, replacing the ones where it succeeds. It returns the
// transformed program (the input is not modified) and one Result per
// loop encountered, in source order.
func TransformProgram(p *source.Program, opts Options) (*source.Program, []*Result, error) {
	return TransformProgramSpan(nil, p, opts)
}

// TransformProgramSpan is TransformProgram under a parent trace span
// ("sem" and per-loop child spans; see TransformSpan).
func TransformProgramSpan(sp *obs.Span, p *source.Program, opts Options) (*source.Program, []*Result, error) {
	out := source.CloneProgram(p)
	semSp := sp.Child("sem")
	info, err := sem.Check(out)
	semSp.End()
	if err != nil {
		return nil, nil, err
	}
	var sites []loopSite
	collectLoopSites(out.Stmts, nil, &sites)
	results, err := transformSites(sp, sites, info.Table, opts)
	if err != nil {
		return nil, nil, err
	}
	// Re-check: the transformation must produce a well-typed program.
	if _, err := sem.Check(out); err != nil {
		return nil, nil, fmt.Errorf("slms: transformed program fails type check: %w", err)
	}
	return out, results, nil
}

// transformSiteHook, when non-nil, runs before each site's transform.
// A non-nil return aborts the program's transform with the error.
// Test-only: the tests inject per-loop failures and panics through it.
var transformSiteHook func(site int) error

// loopSite is one innermost-loop rewrite point: stmts[idx] is the
// *source.For to transform in place. guards are the if-conditions
// enclosing the site (then-branches only) — known true at loop entry,
// they refine the dependence solver's symbolic ranges.
type loopSite struct {
	stmts  []source.Stmt
	idx    int
	loop   *source.For
	guards []source.Expr
}

// collectLoopSites gathers every innermost for-loop rewrite point in
// source order, each with the guards enclosing it: non-innermost For
// bodies, While bodies, Blocks and both If arms recurse; innermost For
// statements become sites.
func collectLoopSites(stmts []source.Stmt, guards []source.Expr, sites *[]loopSite) {
	for i, s := range stmts {
		switch s := s.(type) {
		case *source.For:
			if containsLoop(s.Body) {
				collectLoopSites(s.Body.Stmts, nil, sites)
				continue
			}
			*sites = append(*sites, loopSite{stmts: stmts, idx: i, loop: s, guards: guards})
		case *source.While:
			collectLoopSites(s.Body.Stmts, nil, sites)
		case *source.Block:
			collectLoopSites(s.Stmts, guards, sites)
		case *source.If:
			collectLoopSites(s.Then.Stmts, append(guards[:len(guards):len(guards)], s.Cond), sites)
			if s.Else != nil {
				// The else-branch condition holds negated; the range layer
				// only consumes positive comparisons, so pass nothing.
				collectLoopSites(s.Else.Stmts, nil, sites)
			}
		}
	}
}

// transformSites transforms the sites in source order against the
// program's one symbol table, so each loop's temporaries take the
// table's next free names, and splices every applied replacement into
// place. The first failing loop's error is returned and the loops after
// it are not transformed.
func transformSites(sp *obs.Span, sites []loopSite, tab *sem.Table, opts Options) ([]*Result, error) {
	var results []*Result
	for k, site := range sites {
		r, err := transformSite(sp, k, site, tab, opts)
		if err != nil {
			return nil, err
		}
		if r.Applied {
			site.stmts[site.idx] = r.Replacement
		}
		results = append(results, r)
	}
	return results, nil
}

// transformSite transforms site k, turning a panic in the loop's
// transform into an error that names the loop.
func transformSite(sp *obs.Span, k int, site loopSite, tab *sem.Table, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("slms: transform panic on loop %d (%s): %v", k, site.loop.Pos(), r)
		}
	}()
	if h := transformSiteHook; h != nil {
		if err := h(k); err != nil {
			return nil, err
		}
	}
	return transformSpanGuards(sp, site.loop, tab, opts, site.guards)
}

func containsLoop(b *source.Block) bool {
	found := false
	source.WalkStmt(b, func(s source.Stmt) bool {
		switch s.(type) {
		case *source.For, *source.While:
			if !found {
				// The block itself is passed as a *Block, not a loop; any
				// For/While nested below counts.
				found = true
			}
			return false
		}
		return true
	})
	return found
}
