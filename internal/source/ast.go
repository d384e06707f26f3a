package source

import "sync/atomic"

// Type is the static type of a mini-C expression or variable.
type Type int

// Value types of the language.
const (
	TUnknown Type = iota
	TInt
	TFloat
	TBool
)

// String renders the type using the language keywords.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	default:
		return "unknown"
	}
}

// Op enumerates the unary and binary operators.
type Op int

// Operators.
const (
	OpNone Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
	OpNot // unary
	OpNeg // unary
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=", OpEQ: "==", OpNE: "!=",
	OpAnd: "&&", OpOr: "||", OpNot: "!", OpNeg: "-",
}

// String renders the operator symbol.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a bool from two
// numeric operands.
func (o Op) IsComparison() bool {
	switch o {
	case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		return true
	}
	return false
}

// IsArith reports whether the operator is an arithmetic operator.
func (o Op) IsArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return true
	}
	return false
}

// AssignOp is the operator of an assignment statement.
type AssignOp int

// Assignment operators.
const (
	AEq  AssignOp = iota // =
	AAdd                 // +=
	ASub                 // -=
	AMul                 // *=
	ADiv                 // /=
)

// String renders the assignment operator symbol.
func (a AssignOp) String() string {
	switch a {
	case AAdd:
		return "+="
	case ASub:
		return "-="
	case AMul:
		return "*="
	case ADiv:
		return "/="
	default:
		return "="
	}
}

// BinOp returns the binary operator corresponding to a compound
// assignment (AAdd -> OpAdd, ...). It returns OpNone for plain `=`.
func (a AssignOp) BinOp() Op {
	switch a {
	case AAdd:
		return OpAdd
	case ASub:
		return OpSub
	case AMul:
		return OpMul
	case ADiv:
		return OpDiv
	default:
		return OpNone
	}
}

// Node is any AST node.
type Node interface {
	Pos() Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---------------------------------------------------------------- exprs

// IntLit is an integer literal.
type IntLit struct {
	P     Pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	P     Pos
	Value float64
}

// BoolLit is `true` or `false`.
type BoolLit struct {
	P     Pos
	Value bool
}

// VarRef is a reference to a scalar variable.
type VarRef struct {
	P    Pos
	Name string
}

// IndexExpr is an array element reference A[i] or A[i][j] (equivalently
// A[i, j]).
type IndexExpr struct {
	P       Pos
	Name    string
	Indices []Expr
}

// Unary is a unary operator application (!x or -x).
type Unary struct {
	P  Pos
	Op Op
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	P    Pos
	Op   Op
	X, Y Expr
}

// CondExpr is the C ternary operator c ? a : b.
type CondExpr struct {
	P          Pos
	Cond, A, B Expr
}

// Call is an intrinsic function call (abs, sqrt, min, max, exp, sign, mod).
type Call struct {
	P    Pos
	Name string
	Args []Expr
}

// Pos implementations.
func (e *IntLit) Pos() Pos    { return e.P }
func (e *FloatLit) Pos() Pos  { return e.P }
func (e *BoolLit) Pos() Pos   { return e.P }
func (e *VarRef) Pos() Pos    { return e.P }
func (e *IndexExpr) Pos() Pos { return e.P }
func (e *Unary) Pos() Pos     { return e.P }
func (e *Binary) Pos() Pos    { return e.P }
func (e *CondExpr) Pos() Pos  { return e.P }
func (e *Call) Pos() Pos      { return e.P }

func (*IntLit) exprNode()    {}
func (*FloatLit) exprNode()  {}
func (*BoolLit) exprNode()   {}
func (*VarRef) exprNode()    {}
func (*IndexExpr) exprNode() {}
func (*Unary) exprNode()     {}
func (*Binary) exprNode()    {}
func (*CondExpr) exprNode()  {}
func (*Call) exprNode()      {}

// ---------------------------------------------------------------- stmts

// Decl declares a scalar (`float x;`, `int n = 100;`) or an array
// (`float A[100];`, `float X[64][64];`). Array dimensions are expressions
// evaluated at elaboration time (VLA-style), which the transformations use
// for compiler-introduced temporary arrays.
type Decl struct {
	P    Pos
	Type Type
	Name string
	Dims []Expr // empty for scalars
	Init Expr   // optional initializer for scalars
}

// Assign is an assignment statement, possibly compound (`+=` etc).
type Assign struct {
	P   Pos
	LHS Expr // *VarRef or *IndexExpr
	Op  AssignOp
	RHS Expr
}

// If is an if/else statement. Else may be nil.
type If struct {
	P    Pos
	Cond Expr
	Then *Block
	Else *Block
}

// For is a C-style for loop. Init and Post may be nil.
type For struct {
	P    Pos
	Init Stmt // *Assign or *Decl
	Cond Expr
	Post Stmt // *Assign
	Body *Block
}

// While is a while loop.
type While struct {
	P    Pos
	Cond Expr
	Body *Block
}

// Block is a `{ ... }` statement sequence.
type Block struct {
	P     Pos
	Stmts []Stmt
}

// Par is a set of statements proven independent by the scheduler; it is
// printed as `s1; || s2;` in paper style. Sequential execution of the
// members is always a valid elaboration.
type Par struct {
	P     Pos
	Stmts []Stmt
}

// Break exits the innermost loop.
type Break struct{ P Pos }

// Continue jumps to the next iteration of the innermost loop.
type Continue struct{ P Pos }

// ExprStmt evaluates an expression for effect (intrinsic calls used as
// statements, modelling the paper's opaque function-call MIs).
type ExprStmt struct {
	P Pos
	X Expr
}

// Pos implementations.
func (s *Decl) Pos() Pos     { return s.P }
func (s *Assign) Pos() Pos   { return s.P }
func (s *If) Pos() Pos       { return s.P }
func (s *For) Pos() Pos      { return s.P }
func (s *While) Pos() Pos    { return s.P }
func (s *Block) Pos() Pos    { return s.P }
func (s *Par) Pos() Pos      { return s.P }
func (s *Break) Pos() Pos    { return s.P }
func (s *Continue) Pos() Pos { return s.P }
func (s *ExprStmt) Pos() Pos { return s.P }

func (*Decl) stmtNode()     {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*For) stmtNode()      {}
func (*While) stmtNode()    {}
func (*Block) stmtNode()    {}
func (*Par) stmtNode()      {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*ExprStmt) stmtNode() {}

// Program is a parsed compilation unit: a flat sequence of declarations
// and statements (the model the Tiny tool used — programs are kernels).
type Program struct {
	Stmts []Stmt

	fp atomic.Pointer[fingerprint] // set on first use; see Fingerprint
}

// Block returns the program body as a Block.
func (p *Program) Block() *Block { return &Block{Stmts: p.Stmts} }

// ---------------------------------------------------------------- clone

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *IntLit:
		c := *e
		return &c
	case *FloatLit:
		c := *e
		return &c
	case *BoolLit:
		c := *e
		return &c
	case *VarRef:
		c := *e
		return &c
	case *IndexExpr:
		c := &IndexExpr{P: e.P, Name: e.Name}
		for _, ix := range e.Indices {
			c.Indices = append(c.Indices, CloneExpr(ix))
		}
		return c
	case *Unary:
		return &Unary{P: e.P, Op: e.Op, X: CloneExpr(e.X)}
	case *Binary:
		return &Binary{P: e.P, Op: e.Op, X: CloneExpr(e.X), Y: CloneExpr(e.Y)}
	case *CondExpr:
		return &CondExpr{P: e.P, Cond: CloneExpr(e.Cond), A: CloneExpr(e.A), B: CloneExpr(e.B)}
	case *Call:
		c := &Call{P: e.P, Name: e.Name}
		for _, a := range e.Args {
			c.Args = append(c.Args, CloneExpr(a))
		}
		return c
	}
	panic("source: CloneExpr: unknown expression type")
}

// CloneStmt returns a deep copy of s.
func CloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *Decl:
		c := &Decl{P: s.P, Type: s.Type, Name: s.Name, Init: CloneExpr(s.Init)}
		for _, d := range s.Dims {
			c.Dims = append(c.Dims, CloneExpr(d))
		}
		return c
	case *Assign:
		return &Assign{P: s.P, LHS: CloneExpr(s.LHS), Op: s.Op, RHS: CloneExpr(s.RHS)}
	case *If:
		return &If{P: s.P, Cond: CloneExpr(s.Cond), Then: CloneBlock(s.Then), Else: CloneBlock(s.Else)}
	case *For:
		return &For{P: s.P, Init: CloneStmt(s.Init), Cond: CloneExpr(s.Cond), Post: CloneStmt(s.Post), Body: CloneBlock(s.Body)}
	case *While:
		return &While{P: s.P, Cond: CloneExpr(s.Cond), Body: CloneBlock(s.Body)}
	case *Block:
		return CloneBlock(s)
	case *Par:
		c := &Par{P: s.P}
		for _, st := range s.Stmts {
			c.Stmts = append(c.Stmts, CloneStmt(st))
		}
		return c
	case *Break:
		c := *s
		return &c
	case *Continue:
		c := *s
		return &c
	case *ExprStmt:
		return &ExprStmt{P: s.P, X: CloneExpr(s.X)}
	}
	panic("source: CloneStmt: unknown statement type")
}

// CloneBlock returns a deep copy of b (nil-safe).
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	c := &Block{P: b.P}
	for _, s := range b.Stmts {
		c.Stmts = append(c.Stmts, CloneStmt(s))
	}
	return c
}

// CloneProgram returns a deep copy of p.
func CloneProgram(p *Program) *Program {
	c := &Program{}
	for _, s := range p.Stmts {
		c.Stmts = append(c.Stmts, CloneStmt(s))
	}
	return c
}

// ---------------------------------------------------------------- walk

// WalkExprs calls f on every expression nested in e (including e itself),
// pre-order. f returning false prunes the subtree.
func WalkExprs(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch e := e.(type) {
	case *IndexExpr:
		for _, ix := range e.Indices {
			WalkExprs(ix, f)
		}
	case *Unary:
		WalkExprs(e.X, f)
	case *Binary:
		WalkExprs(e.X, f)
		WalkExprs(e.Y, f)
	case *CondExpr:
		WalkExprs(e.Cond, f)
		WalkExprs(e.A, f)
		WalkExprs(e.B, f)
	case *Call:
		for _, a := range e.Args {
			WalkExprs(a, f)
		}
	}
}

// WalkStmt calls f on every statement nested in s (including s itself),
// pre-order. f returning false prunes the subtree.
func WalkStmt(s Stmt, f func(Stmt) bool) {
	if s == nil || !f(s) {
		return
	}
	switch s := s.(type) {
	case *If:
		WalkStmt(s.Then, f)
		if s.Else != nil {
			WalkStmt(s.Else, f)
		}
	case *For:
		if s.Init != nil {
			WalkStmt(s.Init, f)
		}
		if s.Post != nil {
			WalkStmt(s.Post, f)
		}
		WalkStmt(s.Body, f)
	case *While:
		WalkStmt(s.Body, f)
	case *Block:
		if s == nil {
			return
		}
		for _, st := range s.Stmts {
			WalkStmt(st, f)
		}
	case *Par:
		for _, st := range s.Stmts {
			WalkStmt(st, f)
		}
	}
}

// StmtExprs calls f on every expression directly contained in s (not
// descending into nested statements).
func StmtExprs(s Stmt, f func(Expr) bool) {
	switch s := s.(type) {
	case *Decl:
		for _, d := range s.Dims {
			WalkExprs(d, f)
		}
		WalkExprs(s.Init, f)
	case *Assign:
		WalkExprs(s.LHS, f)
		WalkExprs(s.RHS, f)
	case *If:
		WalkExprs(s.Cond, f)
	case *For:
		WalkExprs(s.Cond, f)
	case *While:
		WalkExprs(s.Cond, f)
	case *ExprStmt:
		WalkExprs(s.X, f)
	}
}

// MapExpr rewrites e bottom-up: f receives each (already rewritten) node
// and returns its replacement.
func MapExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *IndexExpr:
		n := &IndexExpr{P: t.P, Name: t.Name}
		for _, ix := range t.Indices {
			n.Indices = append(n.Indices, MapExpr(ix, f))
		}
		return f(n)
	case *Unary:
		return f(&Unary{P: t.P, Op: t.Op, X: MapExpr(t.X, f)})
	case *Binary:
		return f(&Binary{P: t.P, Op: t.Op, X: MapExpr(t.X, f), Y: MapExpr(t.Y, f)})
	case *CondExpr:
		return f(&CondExpr{P: t.P, Cond: MapExpr(t.Cond, f), A: MapExpr(t.A, f), B: MapExpr(t.B, f)})
	case *Call:
		n := &Call{P: t.P, Name: t.Name}
		for _, a := range t.Args {
			n.Args = append(n.Args, MapExpr(a, f))
		}
		return f(n)
	default:
		return f(CloneExpr(e))
	}
}

// MapStmtExprs rewrites every expression directly contained in s using
// MapExpr, in place.
func MapStmtExprs(s Stmt, f func(Expr) Expr) {
	switch s := s.(type) {
	case *Decl:
		for i := range s.Dims {
			s.Dims[i] = MapExpr(s.Dims[i], f)
		}
		if s.Init != nil {
			s.Init = MapExpr(s.Init, f)
		}
	case *Assign:
		s.LHS = MapExpr(s.LHS, f)
		s.RHS = MapExpr(s.RHS, f)
	case *If:
		s.Cond = MapExpr(s.Cond, f)
		if s.Then != nil {
			for _, st := range s.Then.Stmts {
				MapStmtExprs(st, f)
			}
		}
		if s.Else != nil {
			for _, st := range s.Else.Stmts {
				MapStmtExprs(st, f)
			}
		}
	case *For:
		if s.Init != nil {
			MapStmtExprs(s.Init, f)
		}
		if s.Cond != nil {
			s.Cond = MapExpr(s.Cond, f)
		}
		if s.Post != nil {
			MapStmtExprs(s.Post, f)
		}
		for _, st := range s.Body.Stmts {
			MapStmtExprs(st, f)
		}
	case *While:
		s.Cond = MapExpr(s.Cond, f)
		for _, st := range s.Body.Stmts {
			MapStmtExprs(st, f)
		}
	case *Block:
		for _, st := range s.Stmts {
			MapStmtExprs(st, f)
		}
	case *Par:
		for _, st := range s.Stmts {
			MapStmtExprs(st, f)
		}
	case *ExprStmt:
		s.X = MapExpr(s.X, f)
	}
}

// SubstVar returns a copy of e with every reference to scalar `name`
// replaced by a clone of repl. Array names are not touched.
func SubstVar(e Expr, name string, repl Expr) Expr {
	return MapExpr(e, func(x Expr) Expr {
		if v, ok := x.(*VarRef); ok && v.Name == name {
			return CloneExpr(repl)
		}
		return x
	})
}

// SubstVarStmt replaces scalar references to `name` with repl in all
// expressions of s, in place (s should be a fresh clone).
func SubstVarStmt(s Stmt, name string, repl Expr) {
	MapStmtExprs(s, func(x Expr) Expr {
		if v, ok := x.(*VarRef); ok && v.Name == name {
			return CloneExpr(repl)
		}
		return x
	})
}

// RenameVarStmt renames scalar variable `old` to `new` in all expressions
// of s, in place. Both reads and writes are renamed; array names are not.
func RenameVarStmt(s Stmt, old, new string) {
	SubstVarStmt(s, old, &VarRef{Name: new})
}
