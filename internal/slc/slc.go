// Package slc is the Source Level Compiler of the paper's title: a
// driver that combines SLMS with the classic loop transformations of
// internal/xform the way §6 describes — applying transformations to
// *enable* SLMS (fusion, interchange, mirroring of downward loops) and
// falling back gracefully when nothing helps. The paper positions the
// SLC as an interactive tool; this driver is its automatic counterpart
// (the paper's §11 notes that automatic parallelizers "acting as a SLC"
// can use SLMS the same way), and every decision is logged so the output
// doubles as the interactive session transcript.
package slc

import (
	"fmt"

	"slms/internal/core"
	"slms/internal/obs"
	"slms/internal/sem"
	"slms/internal/source"
	"slms/internal/xform"
)

// Options configures the driver.
type Options struct {
	// SLMS options used for every scheduling attempt.
	SLMS core.Options
	// EnableFusion merges adjacent compatible loops when at least one of
	// them cannot be scheduled alone (§6).
	EnableFusion bool
	// EnableInterchange swaps perfect 2-deep nests when the innermost
	// loop cannot be scheduled but the interchanged one can (§6).
	EnableInterchange bool
	// EnableMirror rewrites downward-counting loops into canonical upward
	// form first.
	EnableMirror bool
	// EnableReductionSplit splits sum/product/min/max recurrences into
	// independent chains (the §5 max example) when SLMS fails because of
	// them.
	EnableReductionSplit bool
	// EnableWhilePipeline software-pipelines eligible while loops (§10).
	EnableWhilePipeline bool
}

// DefaultOptions enables everything with the paper's SLMS defaults.
func DefaultOptions() Options {
	return Options{
		SLMS:                 core.DefaultOptions(),
		EnableFusion:         true,
		EnableInterchange:    true,
		EnableMirror:         true,
		EnableReductionSplit: true,
		EnableWhilePipeline:  true,
	}
}

// Action records one driver decision for the session transcript.
type Action struct {
	Loop      int    // 1-based loop counter in source order
	Transform string // "slms", "fusion+slms", "interchange+slms", ...
	Applied   bool
	Detail    string
}

// String renders the action.
func (a Action) String() string {
	status := "applied"
	if !a.Applied {
		status = "skipped"
	}
	return fmt.Sprintf("loop %d: %s %s (%s)", a.Loop, a.Transform, status, a.Detail)
}

// Result is the driver outcome.
type Result struct {
	Program *source.Program
	Actions []Action
	// Scheduled counts loops that ended up modulo scheduled.
	Scheduled int
}

// Optimize runs the source level compiler over the program. The input is
// not modified.
func Optimize(p *source.Program, opts Options) (*Result, error) {
	return OptimizeSpan(nil, p, opts)
}

// OptimizeSpan is Optimize under a parent trace span: every loop the
// driver transforms gets its child span and decision record (see
// core.TransformSpan). With tracing on and no parent, the run is its
// own span tree, rooted at "slc".
func OptimizeSpan(sp *obs.Span, p *source.Program, opts Options) (*Result, error) {
	if sp == nil {
		sp = obs.Root("slc")
		defer sp.End()
	}
	out := source.CloneProgram(p)
	info, err := sem.Check(out)
	if err != nil {
		return nil, err
	}
	d := &driver{opts: opts, tab: info.Table, res: &Result{}, sp: sp}
	if err := d.stmts(out.Stmts, func(i int, s source.Stmt) {
		out.Stmts[i] = s
	}); err != nil {
		return nil, err
	}
	if _, err := sem.Check(out); err != nil {
		return nil, fmt.Errorf("slc: output fails type check: %w", err)
	}
	d.res.Program = out
	return d.res, nil
}

type driver struct {
	opts    Options
	tab     *sem.Table
	res     *Result
	sp      *obs.Span // parent of every loop's transform span
	loopNum int
}

func (d *driver) record(transform string, applied bool, detail string) {
	d.res.Actions = append(d.res.Actions, Action{
		Loop: d.loopNum, Transform: transform, Applied: applied, Detail: detail,
	})
	if applied {
		d.res.Scheduled++
	}
}

// stmts walks a statement list; replace installs a rewritten statement.
func (d *driver) stmts(ss []source.Stmt, replace func(int, source.Stmt)) error {
	for i := 0; i < len(ss); i++ {
		switch s := ss[i].(type) {
		case *source.For:
			// Fusion: try to merge with the next statement when it is a
			// compatible loop and one of the two cannot be scheduled alone.
			if d.opts.EnableFusion && i+1 < len(ss) {
				if f2, ok := ss[i+1].(*source.For); ok {
					if fused, ok2 := d.tryFusion(s, f2); ok2 {
						// The fused loop comes back already scheduled; the
						// second loop slot becomes a no-op.
						replace(i, fused)
						ss[i] = fused
						empty := &source.Block{}
						replace(i+1, empty)
						ss[i+1] = empty
						i++ // skip the emptied slot
						continue
					}
				}
			}
			st, err := d.loop(s)
			if err != nil {
				return err
			}
			if st != nil {
				replace(i, st)
			}
		case *source.Block:
			if err := d.stmts(s.Stmts, func(j int, ns source.Stmt) { s.Stmts[j] = ns }); err != nil {
				return err
			}
		case *source.If:
			if err := d.stmts(s.Then.Stmts, func(j int, ns source.Stmt) { s.Then.Stmts[j] = ns }); err != nil {
				return err
			}
			if s.Else != nil {
				if err := d.stmts(s.Else.Stmts, func(j int, ns source.Stmt) { s.Else.Stmts[j] = ns }); err != nil {
					return err
				}
			}
		case *source.While:
			if d.opts.EnableWhilePipeline && !hasNestedLoop(s.Body) {
				d.loopNum++
				if piped, err := xform.PipelineWhile(s, d.tab, false); err == nil {
					d.record("while-pipeline", true, "overlapped kernel row")
					replace(i, piped)
					ss[i] = piped
					continue
				} else {
					d.record("while-pipeline", false, err.Error())
				}
			}
			if err := d.stmts(s.Body.Stmts, func(j int, ns source.Stmt) { s.Body.Stmts[j] = ns }); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryFusion merges two adjacent loops when legal and when the fused loop
// schedules although at least one original does not.
func (d *driver) tryFusion(f1, f2 *source.For) (source.Stmt, bool) {
	r1, err1 := core.TransformSpan(d.sp, f1, d.tab, d.opts.SLMS)
	r2, err2 := core.TransformSpan(d.sp, f2, d.tab, d.opts.SLMS)
	if err1 != nil || err2 != nil {
		return nil, false
	}
	if r1.Applied && r2.Applied {
		return nil, false // both fine alone; keep them separate
	}
	fused, err := xform.Fuse(f1, f2, d.tab)
	if err != nil {
		return nil, false
	}
	rf, err := core.TransformSpan(d.sp, fused, d.tab, d.opts.SLMS)
	if err != nil || !rf.Applied {
		return nil, false
	}
	d.loopNum++
	d.record("fusion+slms", true, fmt.Sprintf("II=%d MIs=%d", rf.II, rf.MIs))
	return rf.Replacement, true
}

// loop handles a single for statement (possibly a nest). It returns a
// replacement or nil to keep the original.
func (d *driver) loop(f *source.For) (source.Stmt, error) {
	// Recurse into non-innermost nests first; interchange is considered
	// only for perfect 2-deep nests whose inner loop fails.
	if inner, ok := perfectNestInner(f); ok {
		d.loopNum++
		r, err := core.TransformSpan(d.sp, inner, d.tab, d.opts.SLMS)
		if err != nil {
			return nil, err
		}
		if r.Applied {
			d.record("slms(inner)", true, fmt.Sprintf("II=%d MIs=%d", r.II, r.MIs))
			f.Body.Stmts[0] = r.Replacement
			return f, nil
		}
		if d.opts.EnableInterchange {
			if swapped, err := xform.Interchange(f, d.tab); err == nil {
				newInner := swapped.Body.Stmts[0].(*source.For)
				r2, err := core.TransformSpan(d.sp, newInner, d.tab, d.opts.SLMS)
				if err == nil && r2.Applied {
					d.record("interchange+slms", true, fmt.Sprintf("II=%d MIs=%d", r2.II, r2.MIs))
					swapped.Body.Stmts[0] = r2.Replacement
					return swapped, nil
				}
			}
		}
		d.record("slms(inner)", false, r.Reason)
		return nil, nil
	}
	if hasNestedLoop(f.Body) {
		// Imperfect nest: just optimize inside.
		return nil, d.stmts(f.Body.Stmts, func(j int, ns source.Stmt) { f.Body.Stmts[j] = ns })
	}

	d.loopNum++

	// Downward loops: mirror into canonical form first.
	work := f
	prefix := ""
	if d.opts.EnableMirror {
		if _, err := sem.Canonicalize(f); err != nil {
			if mirrored, merr := xform.MirrorDownward(f, d.tab); merr == nil {
				blk := mirrored.(*source.Block)
				if mf, ok := blk.Stmts[0].(*source.For); ok {
					work = mf
					prefix = "mirror+"
					r, err := core.TransformSpan(d.sp, work, d.tab, d.opts.SLMS)
					if err != nil {
						return nil, err
					}
					if r.Applied {
						d.record(prefix+"slms", true, fmt.Sprintf("II=%d MIs=%d", r.II, r.MIs))
						blk.Stmts[0] = r.Replacement
						return blk, nil
					}
					d.record(prefix+"slms", false, r.Reason)
					return mirrored, nil
				}
			}
		}
	}

	r, err := core.TransformSpan(d.sp, work, d.tab, d.opts.SLMS)
	if err != nil {
		return nil, err
	}
	if r.Applied {
		d.record("slms", true, fmt.Sprintf("II=%d MIs=%d stages=%d unroll=%d", r.II, r.MIs, r.Stages, r.Unroll))
		return r.Replacement, nil
	}

	// Reduction recurrences: split into chains, then retry.
	if d.opts.EnableReductionSplit {
		if split, serr := xform.SplitReduction(work, 2, d.tab); serr == nil {
			blk := split.(*source.Block)
			// The main loop is the first For inside the split block.
			for j, st := range blk.Stmts {
				mf, ok := st.(*source.For)
				if !ok {
					continue
				}
				r2, err := core.TransformSpan(d.sp, mf, d.tab, d.opts.SLMS)
				if err != nil {
					return nil, err
				}
				if r2.Applied {
					d.record("reduction-split+slms", true, fmt.Sprintf("II=%d MIs=%d", r2.II, r2.MIs))
					blk.Stmts[j] = r2.Replacement
					return blk, nil
				}
				break // only the main loop is a candidate
			}
		}
	}

	d.record("slms", false, r.Reason)
	return nil, nil
}

// perfectNestInner returns the inner loop of a perfect 2-deep nest.
func perfectNestInner(f *source.For) (*source.For, bool) {
	if len(f.Body.Stmts) != 1 {
		return nil, false
	}
	inner, ok := f.Body.Stmts[0].(*source.For)
	if !ok || hasNestedLoop(inner.Body) {
		return nil, false
	}
	return inner, true
}

func hasNestedLoop(b *source.Block) bool {
	found := false
	source.WalkStmt(b, func(s source.Stmt) bool {
		switch s.(type) {
		case *source.For, *source.While:
			found = true
			return false
		}
		return true
	})
	return found
}
