package dep

import (
	"fmt"
	"sort"

	"slms/internal/sem"
	"slms/internal/source"
)

// collector gathers the array/scalar references of each MI.
type collector struct {
	loopVar string
	tab     *sem.Table
	refs    []ref
	order   int

	memRefs  int
	arithOps int
	// seenRefs dedups memory-reference counting per MI: repeated uses of
	// the same element (X[k-1]*X[k-1]*...) are one load after register
	// allocation, which is what the §4/§11 filters model.
	seenRefs map[string]bool
	seenMI   int
}

// countMemRef bumps the load/store counter once per distinct reference
// per MI.
func (c *collector) countMemRef(mi int, ix *source.IndexExpr) {
	if c.seenRefs == nil || c.seenMI != mi {
		c.seenRefs = map[string]bool{}
		c.seenMI = mi
	}
	key := source.ExprString(ix)
	if !c.seenRefs[key] {
		c.seenRefs[key] = true
		c.memRefs++
	}
}

func (c *collector) add(r ref) {
	r.order = c.order
	c.order++
	c.refs = append(c.refs, r)
}

// stmt collects references from one statement belonging to MI index mi.
// cond marks control-dependent context (inside an if).
func (c *collector) stmt(s source.Stmt, mi int, cond bool) error {
	switch s := s.(type) {
	case *source.Assign:
		// Reads: RHS, LHS subscripts, and the LHS itself for compound ops.
		c.expr(s.RHS, mi, cond)
		if s.Op != source.AEq {
			c.expr(s.LHS, mi, cond)
			c.arithOps++ // the implied read-modify-write operation
		}
		switch lhs := s.LHS.(type) {
		case *source.VarRef:
			c.add(ref{mi: mi, name: lhs.Name, write: true, cond: cond})
		case *source.IndexExpr:
			c.countMemRef(mi, lhs)
			subs := make([]Affine, len(lhs.Indices))
			for k, ix := range lhs.Indices {
				c.expr(ix, mi, cond)
				subs[k] = ExtractAffine(ix, c.loopVar)
			}
			c.add(ref{mi: mi, name: lhs.Name, write: true, cond: cond, subs: subs})
		default:
			return fmt.Errorf("dep: invalid assignment target %T", s.LHS)
		}
		return nil
	case *source.If:
		c.expr(s.Cond, mi, cond)
		for _, st := range s.Then.Stmts {
			if err := c.stmt(st, mi, true); err != nil {
				return err
			}
		}
		if s.Else != nil {
			for _, st := range s.Else.Stmts {
				if err := c.stmt(st, mi, true); err != nil {
					return err
				}
			}
		}
		return nil
	case *source.Block:
		for _, st := range s.Stmts {
			if err := c.stmt(st, mi, cond); err != nil {
				return err
			}
		}
		return nil
	case *source.ExprStmt:
		c.expr(s.X, mi, cond)
		return nil
	case *source.Decl:
		return fmt.Errorf("dep: declarations inside the scheduled loop body are not supported")
	case *source.For, *source.While:
		return fmt.Errorf("dep: nested loops cannot be modulo scheduled (schedule the innermost loop)")
	case *source.Break, *source.Continue:
		return fmt.Errorf("dep: control transfer inside the loop body (use the while-loop extension)")
	case *source.Par:
		return fmt.Errorf("dep: loop body already contains scheduled par groups")
	}
	return fmt.Errorf("dep: unknown statement %T", s)
}

// expr collects read references (and operation counts) from e.
func (c *collector) expr(e source.Expr, mi int, cond bool) {
	source.WalkExprs(e, func(x source.Expr) bool {
		switch x := x.(type) {
		case *source.VarRef:
			if x.Name != c.loopVar {
				c.add(ref{mi: mi, name: x.Name, cond: cond})
			}
		case *source.IndexExpr:
			c.countMemRef(mi, x)
			subs := make([]Affine, len(x.Indices))
			for k, ix := range x.Indices {
				subs[k] = ExtractAffine(ix, c.loopVar)
			}
			c.add(ref{mi: mi, name: x.Name, cond: cond, subs: subs})
			// Subscript scalars are reads too; WalkExprs will visit them.
		case *source.Binary:
			if x.Op.IsArith() || x.Op.IsComparison() {
				c.arithOps++
			}
		case *source.Unary:
			if x.Op == source.OpNeg {
				c.arithOps++
			}
		case *source.Call:
			c.arithOps++
		}
		return true
	})
}

// classifyScalars builds ScalarInfo for every scalar touched by the body.
func (a *Analysis) classifyScalars(col *collector, mis []source.Stmt, opts Options) error {
	infos := a.Scalars
	get := func(name string) *ScalarInfo {
		si := infos[name]
		if si == nil {
			si = &ScalarInfo{Name: name}
			infos[name] = si
		}
		return si
	}

	// Gather defs/reads in MI order; compute exposure with a running set
	// of unconditionally-written scalars.
	for _, r := range col.refs {
		if len(r.subs) == 0 && r.name != a.LoopVar {
			get(r.name).NumRefs++
		}
	}
	writtenUncond := map[string]bool{}
	for mi := range mis {
		// Reads of this MI happen before its writes.
		for _, r := range col.refs {
			if r.mi != mi || len(r.subs) > 0 || r.write || r.name == a.LoopVar {
				continue
			}
			si := get(r.name)
			si.Reads = appendUniq(si.Reads, mi)
			if !writtenUncond[r.name] {
				si.ExposedReads = appendUniq(si.ExposedReads, mi)
			}
		}
		for _, r := range col.refs {
			if r.mi != mi || len(r.subs) > 0 || !r.write || r.name == a.LoopVar {
				continue
			}
			si := get(r.name)
			si.Defs = appendUniq(si.Defs, mi)
			if !r.cond {
				writtenUncond[r.name] = true
			}
		}
	}

	for _, si := range infos {
		switch {
		case len(si.Defs) == 0:
			si.Class = Invariant
		case len(si.ExposedReads) == 0:
			si.Class = Variant
		default:
			if step, ok := inductionStep(si, mis); ok {
				si.Class = Induction
				si.InductionStep = step
			} else {
				si.Class = Recurrence
				si.Reduction = reductionOp(si, mis)
			}
		}
	}
	return nil
}

func appendUniq(s []int, v int) []int {
	if len(s) > 0 && s[len(s)-1] == v {
		return s
	}
	return append(s, v)
}

// inductionStep recognizes `x += c`, `x -= c` or `x = x ± c` as the only
// definition of x, with the only exposed use inside other expressions
// being reads of the running value.
func inductionStep(si *ScalarInfo, mis []source.Stmt) (int64, bool) {
	if len(si.Defs) != 1 {
		return 0, false
	}
	var step int64
	found := false
	bad := false
	source.WalkStmt(mis[si.Defs[0]], func(s source.Stmt) bool {
		as, ok := s.(*source.Assign)
		if !ok {
			return true
		}
		lhs, ok := as.LHS.(*source.VarRef)
		if !ok || lhs.Name != si.Name {
			return true
		}
		if found {
			bad = true
			return false
		}
		switch as.Op {
		case source.AAdd:
			if c, ok := source.ConstInt(as.RHS); ok {
				step, found = c, true
				return true
			}
		case source.ASub:
			if c, ok := source.ConstInt(as.RHS); ok {
				step, found = -c, true
				return true
			}
		case source.AEq:
			if b, ok := as.RHS.(*source.Binary); ok {
				if v, ok := b.X.(*source.VarRef); ok && v.Name == si.Name {
					if c, ok := source.ConstInt(b.Y); ok {
						switch b.Op {
						case source.OpAdd:
							step, found = c, true
							return true
						case source.OpSub:
							step, found = -c, true
							return true
						}
					}
				}
			}
		}
		bad = true
		return false
	})
	// A conditional induction update is not a plain induction.
	if found && !bad {
		if ifGuarded(mis[si.Defs[0]], si.Name) {
			return 0, false
		}
		return step, true
	}
	return 0, false
}

// ifGuarded reports whether the write to name inside s sits under an if.
func ifGuarded(s source.Stmt, name string) bool {
	guarded := false
	var walk func(st source.Stmt, inIf bool)
	walk = func(st source.Stmt, inIf bool) {
		switch st := st.(type) {
		case *source.Assign:
			if v, ok := st.LHS.(*source.VarRef); ok && v.Name == name && inIf {
				guarded = true
			}
		case *source.If:
			for _, t := range st.Then.Stmts {
				walk(t, true)
			}
			if st.Else != nil {
				for _, t := range st.Else.Stmts {
					walk(t, true)
				}
			}
		case *source.Block:
			for _, t := range st.Stmts {
				walk(t, inIf)
			}
		}
	}
	walk(s, false)
	return guarded
}

// reductionOp recognizes `s += e` / `s -= e` (OpAdd) and `s *= e`
// (OpMul) where s does not otherwise appear in e.
func reductionOp(si *ScalarInfo, mis []source.Stmt) source.Op {
	if len(si.Defs) != 1 {
		return source.OpNone
	}
	op := source.OpNone
	ok := true
	source.WalkStmt(mis[si.Defs[0]], func(s source.Stmt) bool {
		as, isA := s.(*source.Assign)
		if !isA {
			return true
		}
		lhs, isV := as.LHS.(*source.VarRef)
		if !isV || lhs.Name != si.Name {
			return true
		}
		if usesScalar(as.RHS, si.Name) {
			// s = s + e form: accept when s appears exactly once at the top.
			if b, isB := as.RHS.(*source.Binary); isB && as.Op == source.AEq {
				if v, isVx := b.X.(*source.VarRef); isVx && v.Name == si.Name && !usesScalar(b.Y, si.Name) {
					switch b.Op {
					case source.OpAdd, source.OpSub:
						op = source.OpAdd
						return true
					case source.OpMul:
						op = source.OpMul
						return true
					}
				}
			}
			ok = false
			return false
		}
		switch as.Op {
		case source.AAdd, source.ASub:
			op = source.OpAdd
		case source.AMul:
			op = source.OpMul
		default:
			ok = false
		}
		return true
	})
	if !ok {
		return source.OpNone
	}
	return op
}

func usesScalar(e source.Expr, name string) bool {
	used := false
	source.WalkExprs(e, func(x source.Expr) bool {
		if v, ok := x.(*source.VarRef); ok && v.Name == name {
			used = true
			return false
		}
		return true
	})
	return used
}

// scalarEdges emits dependence edges for scalars according to their
// class, in scalar-name order: the edge order decides which of several
// equally binding recurrences mii.BindingCycle names, so it must not
// follow map iteration.
func (a *Analysis) scalarEdges(col *collector, opts Options) {
	names := make([]string, 0, len(a.Scalars))
	for name := range a.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		si := a.Scalars[name]
		if opts.IgnoreScalars[name] || si.Class == Invariant {
			continue
		}
		// Intra-iteration edges (distance 0) by source position.
		for _, d := range si.Defs {
			for _, r := range si.Reads {
				if d < r {
					a.Edges = append(a.Edges, Edge{Kind: Flow, From: d, To: r, Dist: 0, Var: name})
				}
				if r < d {
					a.Edges = append(a.Edges, Edge{Kind: Anti, From: r, To: d, Dist: 0, Var: name})
				}
			}
			for _, d2 := range si.Defs {
				if d < d2 {
					a.Edges = append(a.Edges, Edge{Kind: Output, From: d, To: d2, Dist: 0, Var: name})
				}
			}
		}
		// Loop-carried flow: every exposed read sees the previous
		// iteration's writes.
		for _, r := range si.ExposedReads {
			for _, d := range si.Defs {
				a.Edges = append(a.Edges, Edge{Kind: Flow, From: d, To: r, Dist: 1, Var: name})
			}
		}
		// Loop-carried anti/output edges are false dependences that MVE or
		// scalar expansion eliminates for renamable scalars; they are only
		// real constraints for general recurrences.
		if !si.Renamable() {
			for _, r := range si.Reads {
				for _, d := range si.Defs {
					a.Edges = append(a.Edges, Edge{Kind: Anti, From: r, To: d, Dist: 1, Var: name})
				}
			}
			for _, d := range si.Defs {
				for _, d2 := range si.Defs {
					if d != d2 {
						a.Edges = append(a.Edges, Edge{Kind: Output, From: d, To: d2, Dist: 1, Var: name})
					}
				}
			}
		}
	}
}
