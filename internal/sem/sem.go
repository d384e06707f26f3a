// Package sem provides semantic analysis for mini-C programs: symbol
// tables, type checking with C-style int→float promotion, canonical-loop
// recognition, and fresh-name generation for compiler-introduced
// temporaries.
//
// Like the Tiny tool the paper builds on, the analyser is permissive:
// scalars may be used without declaration, in which case their type is
// inferred from context (loop induction variables and array subscripts
// become int, everything else float). Arrays must always be declared so
// their rank is known.
package sem

import (
	"fmt"
	"sort"
	"strings"

	"slms/internal/source"
)

// Symbol describes a declared or inferred variable.
type Symbol struct {
	Name     string
	Type     source.Type
	Dims     []source.Expr // nil for scalars; len is the array rank
	Implicit bool          // true when the declaration was inferred

	// ConstVal is the scalar's compile-time value when it is declared at
	// the top level with an integer-constant initializer and never
	// reassigned anywhere in the program (write-once); HasConst reports
	// validity. Populated by Check, consumed by the dependence range
	// analysis (internal/dep/omega).
	ConstVal int64
	HasConst bool
	// Assigned is true when any assignment statement targets the scalar
	// (array element writes do not count). Range refinements from guard
	// conditions are only sound for unassigned scalars.
	Assigned bool
}

// IsArray reports whether the symbol is an array.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// Table is a flat symbol table for one program. Mini-C has a single
// scope (kernels), which matches both the Tiny tool and the loop bodies
// the transformations operate on. The SLMS transform mints every loop's
// temporaries into the program's one table, loop by loop in source
// order, so a name minted for one loop is never minted again for
// another.
type Table struct {
	syms  map[string]*Symbol
	order []string
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{syms: make(map[string]*Symbol)}
}

// Lookup returns the symbol for name, or nil.
func (t *Table) Lookup(name string) *Symbol { return t.syms[name] }

// Declare adds a symbol; redeclaration with a different shape is an error.
func (t *Table) Declare(sym *Symbol) error {
	if old, ok := t.syms[sym.Name]; ok {
		if old.IsArray() != sym.IsArray() || (old.IsArray() && len(old.Dims) != len(sym.Dims)) {
			return fmt.Errorf("sem: %q redeclared with different shape", sym.Name)
		}
		if !old.Implicit {
			return fmt.Errorf("sem: %q redeclared", sym.Name)
		}
		// Explicit declaration overrides an earlier inference.
		old.Type = sym.Type
		old.Dims = sym.Dims
		old.Implicit = sym.Implicit
		return nil
	}
	t.syms[sym.Name] = sym
	t.order = append(t.order, sym.Name)
	return nil
}

// Symbols returns the symbols in declaration order.
func (t *Table) Symbols() []*Symbol {
	out := make([]*Symbol, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, t.syms[n])
	}
	return out
}

// Names returns all symbol names, sorted.
func (t *Table) Names() []string {
	ns := make([]string, 0, len(t.syms))
	for n := range t.syms {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Fresh returns a name with the given prefix that does not collide with
// any existing symbol, and reserves it.
func (t *Table) Fresh(prefix string, typ source.Type) string {
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if t.syms[name] == nil {
			t.syms[name] = &Symbol{Name: name, Type: typ, Implicit: true}
			t.order = append(t.order, name)
			return name
		}
	}
}

// Intrinsics maps supported call names to (arity, resultKind). A result
// kind of TUnknown means "same as the widest argument".
var Intrinsics = map[string]struct {
	Arity  int
	Result source.Type
}{
	"abs":  {1, source.TUnknown},
	"sqrt": {1, source.TFloat},
	"exp":  {1, source.TFloat},
	"log":  {1, source.TFloat},
	"sin":  {1, source.TFloat},
	"cos":  {1, source.TFloat},
	"min":  {2, source.TUnknown},
	"max":  {2, source.TUnknown},
	"pow":  {2, source.TFloat},
	"sign": {2, source.TUnknown},
	"mod":  {2, source.TUnknown},
}

// Info is the result of analysing a program.
type Info struct {
	Table *Table
	// ExprTypes records the computed type of every expression node.
	ExprTypes map[source.Expr]source.Type
}

// TypeOf returns the recorded type for e (TUnknown if unrecorded).
func (in *Info) TypeOf(e source.Expr) source.Type { return in.ExprTypes[e] }

// Check analyses the program: it builds the symbol table (inferring
// implicit scalars), computes all expression types, and validates uses.
func Check(p *source.Program) (*Info, error) {
	c := &checker{
		info: &Info{Table: NewTable(), ExprTypes: make(map[source.Expr]source.Type)},
	}
	// Pass 1: collect explicit declarations and infer int-ness of scalars
	// used as loop variables or array subscripts.
	if err := c.collect(p.Block()); err != nil {
		return nil, err
	}
	// Pass 2: type-check all statements.
	if err := c.checkBlockStmts(p.Stmts); err != nil {
		return nil, err
	}
	c.propagateConsts(p)
	return c.info, nil
}

// propagateConsts marks write-once integer scalars: a top-level
// declaration `int n = 200;` whose name is never the target of an
// assignment anywhere in the program pins the symbol to that value for
// the whole execution. The dependence range analysis builds symbolic
// intervals from these. Scalar assignments (including compound ones and
// loop headers) are recorded on every symbol via Assigned.
func (c *checker) propagateConsts(p *source.Program) {
	source.WalkStmt(p.Block(), func(s source.Stmt) bool {
		if as, ok := s.(*source.Assign); ok {
			if v, ok := as.LHS.(*source.VarRef); ok {
				if sym := c.info.Table.Lookup(v.Name); sym != nil {
					sym.Assigned = true
				}
			}
		}
		return true
	})
	// Only top-level declarations qualify: a declaration nested under
	// control flow may re-execute or be bypassed, so its initializer does
	// not pin the value for reads elsewhere.
	for _, s := range p.Stmts {
		d, ok := s.(*source.Decl)
		if !ok || len(d.Dims) > 0 || d.Init == nil {
			continue
		}
		v, isConst := source.ConstInt(d.Init)
		if !isConst {
			continue
		}
		if sym := c.info.Table.Lookup(d.Name); sym != nil && !sym.Assigned {
			sym.ConstVal, sym.HasConst = v, true
		}
	}
}

type checker struct {
	info *Info
}

func (c *checker) collect(b *source.Block) error {
	var firstErr error
	source.WalkStmt(b, func(s source.Stmt) bool {
		if firstErr != nil {
			return false
		}
		switch s := s.(type) {
		case *source.Decl:
			if err := c.info.Table.Declare(&Symbol{Name: s.Name, Type: s.Type, Dims: s.Dims}); err != nil {
				firstErr = err
			}
			// Scalars used in array dimensions are ints.
			for _, d := range s.Dims {
				source.WalkExprs(d, func(se source.Expr) bool {
					if v, ok := se.(*source.VarRef); ok {
						c.inferScalar(v.Name, source.TInt)
					}
					return true
				})
			}
		case *source.For:
			if v := loopVarOf(s); v != "" {
				c.inferScalar(v, source.TInt)
			}
		}
		// Infer int for every scalar used as an array subscript.
		source.StmtExprs(s, func(e source.Expr) bool {
			if ix, ok := e.(*source.IndexExpr); ok {
				for _, sub := range ix.Indices {
					source.WalkExprs(sub, func(se source.Expr) bool {
						if v, ok := se.(*source.VarRef); ok {
							c.inferScalar(v.Name, source.TInt)
						}
						return true
					})
				}
			}
			return true
		})
		return true
	})
	return firstErr
}

// inferScalar records an implicit scalar if the name is not yet known.
func (c *checker) inferScalar(name string, typ source.Type) {
	if c.info.Table.Lookup(name) == nil {
		c.info.Table.syms[name] = &Symbol{Name: name, Type: typ, Implicit: true}
		c.info.Table.order = append(c.info.Table.order, name)
	}
}

func loopVarOf(f *source.For) string {
	switch init := f.Init.(type) {
	case *source.Assign:
		if v, ok := init.LHS.(*source.VarRef); ok {
			return v.Name
		}
	case *source.Decl:
		return init.Name
	}
	return ""
}

func (c *checker) checkBlockStmts(stmts []source.Stmt) error {
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s source.Stmt) error {
	switch s := s.(type) {
	case *source.Decl:
		for _, d := range s.Dims {
			dt, err := c.exprType(d)
			if err != nil {
				return err
			}
			if dt != source.TInt {
				return fmt.Errorf("sem: %s: array dimension of %q must be int, got %s", s.Pos(), s.Name, dt)
			}
		}
		if s.Init != nil {
			it, err := c.exprType(s.Init)
			if err != nil {
				return err
			}
			if !assignable(s.Type, it) {
				return fmt.Errorf("sem: %s: cannot initialize %s %q with %s", s.Pos(), s.Type, s.Name, it)
			}
		}
		return nil
	case *source.Assign:
		rt, err := c.exprType(s.RHS)
		if err != nil {
			return err
		}
		lt, err := c.lvalueType(s.LHS, rt)
		if err != nil {
			return err
		}
		if s.Op != source.AEq && lt == source.TBool {
			return fmt.Errorf("sem: %s: compound assignment to bool", s.Pos())
		}
		if !assignable(lt, rt) {
			return fmt.Errorf("sem: %s: cannot assign %s to %s", s.Pos(), rt, lt)
		}
		return nil
	case *source.If:
		ct, err := c.exprType(s.Cond)
		if err != nil {
			return err
		}
		if ct != source.TBool {
			return fmt.Errorf("sem: %s: if condition must be bool, got %s", s.Pos(), ct)
		}
		if err := c.checkBlockStmts(s.Then.Stmts); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkBlockStmts(s.Else.Stmts)
		}
		return nil
	case *source.For:
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			ct, err := c.exprType(s.Cond)
			if err != nil {
				return err
			}
			if ct != source.TBool {
				return fmt.Errorf("sem: %s: for condition must be bool, got %s", s.Pos(), ct)
			}
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		return c.checkBlockStmts(s.Body.Stmts)
	case *source.While:
		ct, err := c.exprType(s.Cond)
		if err != nil {
			return err
		}
		if ct != source.TBool {
			return fmt.Errorf("sem: %s: while condition must be bool, got %s", s.Pos(), ct)
		}
		return c.checkBlockStmts(s.Body.Stmts)
	case *source.Block:
		return c.checkBlockStmts(s.Stmts)
	case *source.Par:
		return c.checkBlockStmts(s.Stmts)
	case *source.Break, *source.Continue:
		return nil
	case *source.ExprStmt:
		_, err := c.exprType(s.X)
		return err
	}
	return fmt.Errorf("sem: unknown statement %T", s)
}

// lvalueType types an assignment target. hint is the RHS type, used to
// infer the type of implicitly declared scalars on first write.
func (c *checker) lvalueType(e source.Expr, hint source.Type) (source.Type, error) {
	switch e := e.(type) {
	case *source.VarRef:
		sym := c.info.Table.Lookup(e.Name)
		if sym == nil {
			// Implicit scalar written before use: take the RHS type
			// (defaulting to float for unknowns).
			t := hint
			if t == source.TUnknown {
				t = source.TFloat
			}
			c.inferScalar(e.Name, t)
			sym = c.info.Table.Lookup(e.Name)
		}
		if sym.IsArray() {
			return 0, fmt.Errorf("sem: %s: cannot assign to array %q without subscript", e.Pos(), e.Name)
		}
		c.info.ExprTypes[e] = sym.Type
		return sym.Type, nil
	case *source.IndexExpr:
		return c.exprType(e)
	}
	return 0, fmt.Errorf("sem: %s: invalid assignment target", e.Pos())
}

func assignable(dst, src source.Type) bool {
	if dst == src {
		return true
	}
	// Numeric conversions are implicit, as in C.
	return (dst == source.TFloat && src == source.TInt) ||
		(dst == source.TInt && src == source.TFloat)
}

func (c *checker) exprType(e source.Expr) (source.Type, error) {
	t, err := c.exprType1(e)
	if err == nil {
		c.info.ExprTypes[e] = t
	}
	return t, err
}

func (c *checker) exprType1(e source.Expr) (source.Type, error) {
	switch e := e.(type) {
	case *source.IntLit:
		return source.TInt, nil
	case *source.FloatLit:
		return source.TFloat, nil
	case *source.BoolLit:
		return source.TBool, nil
	case *source.VarRef:
		sym := c.info.Table.Lookup(e.Name)
		if sym == nil {
			c.inferScalar(e.Name, source.TFloat)
			sym = c.info.Table.Lookup(e.Name)
		}
		if sym.IsArray() {
			return 0, fmt.Errorf("sem: %s: array %q used without subscript", e.Pos(), e.Name)
		}
		return sym.Type, nil
	case *source.IndexExpr:
		sym := c.info.Table.Lookup(e.Name)
		if sym == nil {
			return 0, fmt.Errorf("sem: %s: array %q is not declared", e.Pos(), e.Name)
		}
		if !sym.IsArray() {
			return 0, fmt.Errorf("sem: %s: %q is not an array", e.Pos(), e.Name)
		}
		if len(e.Indices) != len(sym.Dims) {
			return 0, fmt.Errorf("sem: %s: array %q has rank %d but %d subscripts given",
				e.Pos(), e.Name, len(sym.Dims), len(e.Indices))
		}
		for _, ix := range e.Indices {
			it, err := c.exprType(ix)
			if err != nil {
				return 0, err
			}
			if it != source.TInt {
				return 0, fmt.Errorf("sem: %s: subscript of %q must be int, got %s", e.Pos(), e.Name, it)
			}
		}
		return sym.Type, nil
	case *source.Unary:
		xt, err := c.exprType(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case source.OpNot:
			if xt != source.TBool {
				return 0, fmt.Errorf("sem: %s: operand of ! must be bool, got %s", e.Pos(), xt)
			}
			return source.TBool, nil
		case source.OpNeg:
			if xt == source.TBool {
				return 0, fmt.Errorf("sem: %s: cannot negate bool", e.Pos())
			}
			return xt, nil
		}
		return 0, fmt.Errorf("sem: %s: bad unary op", e.Pos())
	case *source.Binary:
		xt, err := c.exprType(e.X)
		if err != nil {
			return 0, err
		}
		yt, err := c.exprType(e.Y)
		if err != nil {
			return 0, err
		}
		switch {
		case e.Op == source.OpAnd || e.Op == source.OpOr:
			if xt != source.TBool || yt != source.TBool {
				return 0, fmt.Errorf("sem: %s: operands of %s must be bool", e.Pos(), e.Op)
			}
			return source.TBool, nil
		case e.Op.IsComparison():
			if (xt == source.TBool) != (yt == source.TBool) {
				return 0, fmt.Errorf("sem: %s: cannot compare %s with %s", e.Pos(), xt, yt)
			}
			return source.TBool, nil
		case e.Op == source.OpMod:
			if xt != source.TInt || yt != source.TInt {
				return 0, fmt.Errorf("sem: %s: operands of %% must be int", e.Pos())
			}
			return source.TInt, nil
		case e.Op.IsArith():
			if xt == source.TBool || yt == source.TBool {
				return 0, fmt.Errorf("sem: %s: arithmetic on bool", e.Pos())
			}
			return promote(xt, yt), nil
		}
		return 0, fmt.Errorf("sem: %s: bad binary op", e.Pos())
	case *source.CondExpr:
		ct, err := c.exprType(e.Cond)
		if err != nil {
			return 0, err
		}
		if ct != source.TBool {
			return 0, fmt.Errorf("sem: %s: ?: condition must be bool", e.Pos())
		}
		at, err := c.exprType(e.A)
		if err != nil {
			return 0, err
		}
		bt, err := c.exprType(e.B)
		if err != nil {
			return 0, err
		}
		if at == source.TBool || bt == source.TBool {
			if at != bt {
				return 0, fmt.Errorf("sem: %s: mismatched ?: arms", e.Pos())
			}
			return at, nil
		}
		return promote(at, bt), nil
	case *source.Call:
		in, ok := Intrinsics[strings.ToLower(e.Name)]
		if !ok {
			return 0, fmt.Errorf("sem: %s: unknown function %q", e.Pos(), e.Name)
		}
		if len(e.Args) != in.Arity {
			return 0, fmt.Errorf("sem: %s: %s takes %d arguments, got %d", e.Pos(), e.Name, in.Arity, len(e.Args))
		}
		widest := source.TInt
		for _, a := range e.Args {
			at, err := c.exprType(a)
			if err != nil {
				return 0, err
			}
			if at == source.TBool {
				return 0, fmt.Errorf("sem: %s: %s argument cannot be bool", e.Pos(), e.Name)
			}
			widest = promote(widest, at)
		}
		if in.Result != source.TUnknown {
			return in.Result, nil
		}
		return widest, nil
	}
	return 0, fmt.Errorf("sem: unknown expression %T", e)
}

func promote(a, b source.Type) source.Type {
	if a == source.TFloat || b == source.TFloat {
		return source.TFloat
	}
	return source.TInt
}
