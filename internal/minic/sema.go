package minic

import "fmt"

// SymKind classifies resolved symbols.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota
	SymParam
	SymLocal
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymParam:
		return "param"
	case SymLocal:
		return "local"
	}
	return fmt.Sprintf("SymKind(%d)", int(k))
}

// Symbol is a resolved variable.
type Symbol struct {
	Name string
	Kind SymKind
	Proc int // procedure index, or -1 for globals
	ID   int // dense number in [0, Info.NumSyms)
	Pos  Pos
}

// Info is the result of semantic analysis: procedure indices and the
// symbol tables, ready for IR construction. The resolution of each name is
// not kept here: Check writes it into the node that names it (the Sym field
// of VarRef, VarDecl, AssignStmt, StoreStmt and IndexExpr).
//
// Symbols are numbered densely in declaration order: globals first, then
// each procedure's params and locals. A consumer keeps per-symbol state in
// a slice of NumSyms entries indexed by Symbol.ID.
type Info struct {
	ProcIdx    map[string]int
	GlobalSyms []*Symbol
	ProcSyms   [][]*Symbol // per procedure: params first, then locals in declaration order
	NumSyms    int
}

// binding is a name in scope. outer is the index in checker.binds of the
// binding it shadows, or -1.
type binding struct {
	sym   *Symbol
	outer int32
}

type checker struct {
	prog *Program
	info *Info

	procIdx   int
	names     map[string]int32 // name → index in binds of its innermost binding
	binds     []binding        // the bindings in scope, outermost first
	scopes    []int            // where each open scope's bindings start in binds
	loopDepth int
	errs      []*Error
	symPool   []Symbol // slab declare hands symbols out of
}

// Check performs semantic analysis on a parsed program. It verifies that a
// `main` procedure with no parameters exists, that all names resolve, that
// calls match procedure arity, and that break/continue appear inside loops.
// The first error encountered in source order is returned. Check writes
// each name's resolution into the node that names it.
func Check(prog *Program) (*Info, error) {
	c := &checker{
		prog:   prog,
		info:   &Info{ProcIdx: make(map[string]int)},
		names:  make(map[string]int32),
		scopes: []int{0},
	}
	c.run()
	if len(c.errs) > 0 {
		return nil, c.errs[0]
	}
	return c.info, nil
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

func (c *checker) run() {
	// The globals are the outermost scope.
	for _, g := range c.prog.Globals {
		if IsBuiltin(g.Name) {
			c.errorf(g.Pos, "cannot declare global %q: name is a builtin", g.Name)
			continue
		}
		if _, dup := c.names[g.Name]; dup {
			c.errorf(g.Pos, "duplicate global variable %q", g.Name)
			continue
		}
		sym := &Symbol{Name: g.Name, Kind: SymGlobal, Proc: -1, ID: c.info.NumSyms, Pos: g.Pos}
		c.info.NumSyms++
		c.bind(sym, -1)
		c.info.GlobalSyms = append(c.info.GlobalSyms, sym)
	}

	for i, fn := range c.prog.Procs {
		if IsBuiltin(fn.Name) {
			c.errorf(fn.Pos, "cannot define procedure %q: name is a builtin", fn.Name)
		}
		if _, dup := c.info.ProcIdx[fn.Name]; dup {
			c.errorf(fn.Pos, "duplicate procedure %q", fn.Name)
			continue
		}
		if _, isGlobal := c.names[fn.Name]; isGlobal {
			c.errorf(fn.Pos, "procedure %q conflicts with a global variable", fn.Name)
		}
		c.info.ProcIdx[fn.Name] = i
	}
	c.info.ProcSyms = make([][]*Symbol, len(c.prog.Procs))

	mainIdx, ok := c.info.ProcIdx["main"]
	if !ok {
		c.errorf(Pos{Line: 1, Col: 1}, "program has no 'main' procedure")
	} else if n := len(c.prog.Procs[mainIdx].Params); n != 0 {
		c.errorf(c.prog.Procs[mainIdx].Pos, "'main' must take no parameters, has %d", n)
	}

	for i, fn := range c.prog.Procs {
		c.procIdx = i
		c.checkProc(fn)
	}
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, len(c.binds)) }

// popScope unbinds the innermost scope's names, uncovering what they
// shadowed.
func (c *checker) popScope() {
	start := c.scopes[len(c.scopes)-1]
	for i := len(c.binds) - 1; i >= start; i-- {
		b := c.binds[i]
		if b.outer < 0 {
			delete(c.names, b.sym.Name)
		} else {
			c.names[b.sym.Name] = b.outer
		}
	}
	c.binds = c.binds[:start]
	c.scopes = c.scopes[:len(c.scopes)-1]
}

// bind makes sym the innermost binding of its name; outer is the binding
// it shadows, or -1.
func (c *checker) bind(sym *Symbol, outer int32) {
	c.names[sym.Name] = int32(len(c.binds))
	c.binds = append(c.binds, binding{sym: sym, outer: outer})
}

func (c *checker) declare(name string, kind SymKind, pos Pos) *Symbol {
	if IsBuiltin(name) {
		c.errorf(pos, "cannot declare %q: name is a builtin", name)
	}
	outer, bound := c.names[name]
	if !bound {
		outer = -1
	} else if int(outer) >= c.scopes[len(c.scopes)-1] {
		prev := c.binds[outer].sym
		c.errorf(pos, "duplicate declaration of %q (previous at %s)", name, prev.Pos)
		return prev
	}
	if len(c.symPool) == 0 {
		c.symPool = make([]Symbol, 64)
	}
	sym := &c.symPool[0]
	c.symPool = c.symPool[1:]
	*sym = Symbol{Name: name, Kind: kind, Proc: c.procIdx, ID: c.info.NumSyms, Pos: pos}
	c.info.NumSyms++
	c.bind(sym, outer)
	c.info.ProcSyms[c.procIdx] = append(c.info.ProcSyms[c.procIdx], sym)
	return sym
}

func (c *checker) lookup(name string, pos Pos) *Symbol {
	if i, ok := c.names[name]; ok {
		return c.binds[i].sym
	}
	c.errorf(pos, "undeclared variable %q", name)
	// Recover with a fake local so later checks continue. It has no ID:
	// a program with an error is never lowered.
	return &Symbol{Name: name, Kind: SymLocal, Proc: c.procIdx, ID: -1, Pos: pos}
}

func (c *checker) checkProc(fn *Proc) {
	c.pushScope()
	defer c.popScope()
	for _, prm := range fn.Params {
		c.declare(prm.Name, SymParam, prm.Pos)
	}
	c.checkBlock(fn.Body)
}

func (c *checker) checkBlock(b *Block) {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s Stmt) {
	switch s := s.(type) {
	case *VarDecl:
		// The initializer is checked in the enclosing scope: `var x = x;`
		// refers to an outer x.
		if s.Init != nil {
			c.checkExpr(s.Init)
		}
		s.Sym = c.declare(s.Name, SymLocal, s.Pos)
	case *AssignStmt:
		c.checkExpr(s.Value)
		s.Sym = c.lookup(s.Name, s.Pos)
	case *StoreStmt:
		s.Sym = c.lookup(s.Ptr, s.Pos)
		c.checkExpr(s.Index)
		c.checkExpr(s.Value)
	case *CallStmt:
		c.checkCall(s.Call)
	case *IfStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			if blk, ok := ElseBlock(s.Else); ok {
				c.checkBlock(blk)
			} else {
				c.checkStmt(s.Else)
			}
		}
	case *WhileStmt:
		c.checkCond(s.Cond)
		c.loopDepth++
		c.checkBlock(s.Body)
		c.loopDepth--
	case *ReturnStmt:
		if s.Value != nil {
			c.checkExpr(s.Value)
		}
	case *BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos, "'break' outside loop")
		}
	case *ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos, "'continue' outside loop")
		}
	case *PrintStmt:
		c.checkExpr(s.Value)
	default:
		// The front end consumes untrusted source: an AST node this
		// checker does not know (a parser extension it was not taught, a
		// hand-built tree) must surface as a source error, never crash
		// the process.
		c.errorf(s.Position(), "unsupported statement %T", s)
	}
}

func (c *checker) checkCond(cd *Cond) {
	c.checkExpr(cd.Lhs)
	c.checkExpr(cd.Rhs)
}

func (c *checker) checkExpr(e Expr) {
	switch e := e.(type) {
	case *NumLit:
	case *VarRef:
		e.Sym = c.lookup(e.Name, e.Pos)
	case *BinExpr:
		c.checkExpr(e.L)
		c.checkExpr(e.R)
	case *NegExpr:
		c.checkExpr(e.X)
	case *CallExpr:
		c.checkCall(e)
	case *IndexExpr:
		e.Sym = c.lookup(e.Ptr, e.Pos)
		c.checkExpr(e.Index)
	default:
		c.errorf(e.Position(), "unsupported expression %T", e)
	}
}

func (c *checker) checkCall(call *CallExpr) {
	for _, a := range call.Args {
		c.checkExpr(a)
	}
	switch call.Name {
	case BuiltinAlloc:
		if len(call.Args) != 1 {
			c.errorf(call.Pos, "alloc takes 1 argument, got %d", len(call.Args))
		}
		return
	case BuiltinByte:
		if len(call.Args) != 1 {
			c.errorf(call.Pos, "byte takes 1 argument, got %d", len(call.Args))
		}
		return
	case BuiltinInput:
		if len(call.Args) != 0 {
			c.errorf(call.Pos, "input takes no arguments, got %d", len(call.Args))
		}
		return
	}
	idx, ok := c.info.ProcIdx[call.Name]
	if !ok {
		c.errorf(call.Pos, "call to undefined procedure %q", call.Name)
		return
	}
	fn := c.prog.Procs[idx]
	if len(call.Args) != len(fn.Params) {
		c.errorf(call.Pos, "procedure %q takes %d arguments, got %d",
			call.Name, len(fn.Params), len(call.Args))
	}
	if call.Name == "main" {
		c.errorf(call.Pos, "'main' cannot be called")
	}
}
