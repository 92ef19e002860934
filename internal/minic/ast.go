package minic

import "icbe/internal/pred"

// Program is a parsed MiniC compilation unit.
type Program struct {
	Globals []*Global
	Procs   []*Proc
}

// Global is a global variable declaration with an optional constant
// initializer (default 0).
type Global struct {
	Name    string
	HasInit bool
	Init    int64
	Pos     Pos
}

// Proc is a procedure definition. Every procedure may return a value with
// `return expr;`; a bare `return;` (or falling off the end) returns 0.
type Proc struct {
	Name   string
	Params []Param
	Body   *Block
	Pos    Pos
}

// Param is a formal parameter (passed by value).
type Param struct {
	Name string
	Pos  Pos
}

// Block is a brace-delimited statement sequence with its own scope.
type Block struct {
	Stmts []Stmt
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmt()
	Position() Pos
}

// VarDecl declares a local variable with an optional initializer.
type VarDecl struct {
	Name string
	Init Expr    // nil means zero
	Sym  *Symbol // the declared symbol, set by Check
	Pos  Pos
}

// AssignStmt assigns the value of an expression to a variable.
type AssignStmt struct {
	Name  string
	Value Expr
	Sym   *Symbol // resolution of Name, set by Check
	Pos   Pos
}

// StoreStmt writes to the heap: ptr[index] = value.
type StoreStmt struct {
	Ptr   string
	Index Expr
	Value Expr
	Sym   *Symbol // resolution of Ptr, set by Check
	Pos   Pos
}

// CallStmt invokes a procedure for effect, discarding any result.
type CallStmt struct {
	Call *CallExpr
	Pos  Pos
}

// IfStmt is a two-way conditional; Else is nil, a *Block, or an *IfStmt
// (for `else if` chains).
type IfStmt struct {
	Cond *Cond
	Then *Block
	Else Stmt
	Pos  Pos
}

// WhileStmt is a pre-tested loop.
type WhileStmt struct {
	Cond *Cond
	Body *Block
	Pos  Pos
}

// ReturnStmt leaves the current procedure, optionally with a value.
type ReturnStmt struct {
	Value Expr // nil means return 0
	Pos   Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt jumps to the innermost loop's condition.
type ContinueStmt struct{ Pos Pos }

// PrintStmt appends a value to the program output.
type PrintStmt struct {
	Value Expr
	Pos   Pos
}

func (*VarDecl) stmt()      {}
func (*AssignStmt) stmt()   {}
func (*StoreStmt) stmt()    {}
func (*CallStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*PrintStmt) stmt()    {}

// Position returns the statement's source position.
func (s *VarDecl) Position() Pos      { return s.Pos }
func (s *AssignStmt) Position() Pos   { return s.Pos }
func (s *StoreStmt) Position() Pos    { return s.Pos }
func (s *CallStmt) Position() Pos     { return s.Pos }
func (s *IfStmt) Position() Pos       { return s.Pos }
func (s *WhileStmt) Position() Pos    { return s.Pos }
func (s *ReturnStmt) Position() Pos   { return s.Pos }
func (s *BreakStmt) Position() Pos    { return s.Pos }
func (s *ContinueStmt) Position() Pos { return s.Pos }
func (s *PrintStmt) Position() Pos    { return s.Pos }

// Cond is a branch condition `lhs relop rhs`. A bare expression condition
// `if (e)` parses as `e != 0`.
type Cond struct {
	Lhs Expr
	Op  pred.Op
	Rhs Expr
	Pos Pos
}

// Expr is implemented by all expression nodes.
type Expr interface {
	expr()
	Position() Pos
}

// NumLit is an integer or character literal.
type NumLit struct {
	Val int64
	Pos Pos
}

// VarRef names a variable.
type VarRef struct {
	Name string
	Sym  *Symbol // resolution of Name, set by Check
	Pos  Pos
}

// BinOp enumerates arithmetic operators.
type BinOp int

// Arithmetic operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (o BinOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// NegExpr is arithmetic negation.
type NegExpr struct {
	X   Expr
	Pos Pos
}

// CallExpr invokes a procedure or builtin for a value. The builtins are
// alloc(n), byte(x), and input().
type CallExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// IndexExpr is a heap load `ptr[index]`.
type IndexExpr struct {
	Ptr   string
	Index Expr
	Sym   *Symbol // resolution of Ptr, set by Check
	Pos   Pos
}

func (*NumLit) expr()    {}
func (*VarRef) expr()    {}
func (*BinExpr) expr()   {}
func (*NegExpr) expr()   {}
func (*CallExpr) expr()  {}
func (*IndexExpr) expr() {}

// Position returns the expression's source position.
func (e *NumLit) Position() Pos    { return e.Pos }
func (e *VarRef) Position() Pos    { return e.Pos }
func (e *BinExpr) Position() Pos   { return e.Pos }
func (e *NegExpr) Position() Pos   { return e.Pos }
func (e *CallExpr) Position() Pos  { return e.Pos }
func (e *IndexExpr) Position() Pos { return e.Pos }

// Builtin names reserved by the language.
const (
	BuiltinAlloc = "alloc"
	BuiltinByte  = "byte"
	BuiltinInput = "input"
)

// IsBuiltin reports whether name is a reserved builtin procedure name.
func IsBuiltin(name string) bool {
	switch name {
	case BuiltinAlloc, BuiltinByte, BuiltinInput:
		return true
	}
	return false
}
