package ir

import (
	"fmt"
	"strconv"
	"strings"

	"icbe/internal/minic"
	"icbe/internal/pred"
)

// Build parses, checks, and lowers MiniC source text into an ICFG.
func Build(src string) (*Program, error) {
	ast, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := minic.Check(ast)
	if err != nil {
		return nil, err
	}
	prog, err := BuildAST(ast, info)
	if err != nil {
		return nil, err
	}
	prog.SourceLines = strings.Count(src, "\n") + 1
	return prog, nil
}

// BuildAST lowers a checked AST onto the ICFG.
func BuildAST(ast *minic.Program, info *minic.Info) (*Program, error) {
	b := &builder{
		ast:  ast,
		info: info,
		prog: &Program{},
		vars: make([]VarID, info.NumSyms),
	}
	b.lowerProgram()
	if b.err != nil {
		return nil, b.err
	}
	return b.prog, nil
}

type loopCtx struct {
	head  NodeID // continue target
	after NodeID // break target
}

type builder struct {
	ast  *minic.Program
	info *minic.Info
	prog *Program
	vars []VarID // by minic.Symbol.ID

	proc  int
	cur   *Node // nil while lowering unreachable code
	exit  *Node
	loops []loopCtx
	ntemp int
	err   error
}

func (b *builder) errorf(pos minic.Pos, format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (b *builder) lowerProgram() {
	p := b.prog
	// Globals first so their IDs are dense at the front of the arena.
	for i, sym := range b.info.GlobalSyms {
		id := p.NewVar(sym.Name, VarGlobal, -1)
		b.vars[sym.ID] = id
		g := b.ast.Globals[i]
		if g.HasInit {
			p.Vars[id].Init = g.Init
		}
	}
	// Procedure shells: formals and return variables.
	for i, fn := range b.ast.Procs {
		pr := &Proc{Name: fn.Name, Index: i}
		nparams := len(fn.Params)
		for j := 0; j < nparams; j++ {
			sym := b.info.ProcSyms[i][j]
			id := p.NewVar(fn.Name+"."+sym.Name, VarParam, i)
			b.vars[sym.ID] = id
			pr.Formals = append(pr.Formals, id)
		}
		pr.RetVar = p.NewVar(fn.Name+".$ret", VarRet, i)
		p.Procs = append(p.Procs, pr)
	}
	p.MainProc = b.info.ProcIdx["main"]

	// Lower each procedure body.
	for i, fn := range b.ast.Procs {
		b.lowerProc(i, fn)
		if b.err != nil {
			return
		}
	}

	// Link interprocedural edges: call → callee entry, callee exit →
	// call-site exit.
	p.LiveNodes(func(n *Node) {
		if n.Kind != NCall {
			return
		}
		callee := p.Procs[n.Callee]
		p.AddEdge(n.ID, callee.Entries[0])
		for _, ce := range p.CallExitSuccs(n) {
			p.AddEdge(callee.Exits[0], ce.ID)
		}
	})

	// Prune intraprocedurally unreachable nodes. A walk follows only its own
	// procedure's nodes, so one mark array serves every procedure, and a
	// deletion never changes another procedure's walk.
	reached := make([]bool, p.numNodes)
	for i := range p.Procs {
		b.markReachable(i, reached)
	}
	p.LiveNodes(func(n *Node) {
		if !reached[n.ID] {
			p.DeleteNode(n.ID)
		}
	})
	for _, pr := range p.Procs {
		var exits []NodeID
		for _, e := range pr.Exits {
			if reached[e] {
				exits = append(exits, e)
			}
		}
		pr.Exits = exits
	}
}

func (b *builder) lowerProc(idx int, fn *minic.Proc) {
	p := b.prog
	pr := p.Procs[idx]
	b.proc = idx
	b.ntemp = 0
	b.loops = nil

	entry := p.NewNode(NEntry, idx)
	entry.Line = fn.Pos.Line
	pr.Entries = []NodeID{entry.ID}
	b.exit = p.NewNode(NExit, idx)
	pr.Exits = []NodeID{b.exit.ID}

	b.cur = entry
	b.lowerBlock(fn.Body)
	if b.cur != nil {
		// Implicit `return 0` when control falls off the end.
		n := b.newAssign(pr.RetVar, RHS{Kind: RConst, Const: 0}, fn.Pos.Line)
		b.emit(n)
		p.AddEdge(b.cur.ID, b.exit.ID)
		b.cur = nil
	}
}

// markReachable marks the procedure's nodes reachable from any of its
// entries via intraprocedural edges (treating call → call-site-exit as the
// local fallthrough).
func (b *builder) markReachable(idx int, reached []bool) {
	p := b.prog
	pr := p.Procs[idx]
	stack := make([]NodeID, 0, len(pr.Entries))
	for _, e := range pr.Entries {
		reached[e] = true
		stack = append(stack, e)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Node(id).Succs {
			sn := p.Node(s)
			if sn == nil || sn.Proc != idx || reached[s] {
				continue
			}
			reached[s] = true
			stack = append(stack, s)
		}
	}
}

// emit appends node n to the current flow position.
func (b *builder) emit(n *Node) {
	if b.cur != nil {
		b.prog.AddEdge(b.cur.ID, n.ID)
	}
	b.cur = n
}

func (b *builder) newTemp() VarID {
	b.ntemp++
	name := b.prog.Procs[b.proc].Name + ".%t" + strconv.Itoa(b.ntemp)
	return b.prog.NewVar(name, VarTemp, b.proc)
}

func (b *builder) newAssign(dst VarID, rhs RHS, line int32) *Node {
	n := b.prog.NewNode(NAssign, b.proc)
	n.Dst = dst
	n.SetRHS(rhs)
	n.Line = line
	return n
}

func (b *builder) newAssert(v VarID, pr pred.Pred, line int32) *Node {
	n := b.prog.NewNode(NAssert, b.proc)
	n.SetAssert(v, pr)
	n.Line = line
	return n
}

func (b *builder) lowerBlock(blk *minic.Block) {
	for _, s := range blk.Stmts {
		if b.err != nil {
			return
		}
		if b.cur == nil {
			// Unreachable code after return/break/continue: skip.
			return
		}
		b.lowerStmt(s)
	}
}

func (b *builder) lowerStmt(s minic.Stmt) {
	switch s := s.(type) {
	case *minic.VarDecl:
		id := b.prog.NewVar(b.prog.Procs[b.proc].Name+"."+s.Name, VarLocal, b.proc)
		if s.Init != nil {
			// Initializer evaluated before the variable exists (it may
			// reference an outer binding of the same name).
			b.lowerExprInto(id, s.Init, s.Pos.Line)
			b.vars[s.Sym.ID] = id
		} else {
			b.vars[s.Sym.ID] = id
			b.emit(b.newAssign(id, RHS{Kind: RConst, Const: 0}, s.Pos.Line))
		}

	case *minic.AssignStmt:
		dst := b.vars[s.Sym.ID]
		b.lowerExprInto(dst, s.Value, s.Pos.Line)

	case *minic.StoreStmt:
		ptr := b.vars[s.Sym.ID]
		idx := b.lowerOperand(s.Index)
		val := b.lowerOperand(s.Value)
		n := b.prog.NewNode(NStore, b.proc)
		n.SetStore(ptr, idx, val)
		n.Line = s.Pos.Line
		b.emit(n)
		// The store dereferenced ptr, so ptr != 0 past this point.
		b.emit(b.newAssert(ptr, pred.Pred{Op: pred.Ne, C: 0}, s.Pos.Line))

	case *minic.CallStmt:
		b.lowerCall(s.Call, NoVar, s.Pos.Line)

	case *minic.PrintStmt:
		val := b.lowerOperand(s.Value)
		n := b.prog.NewNode(NPrint, b.proc)
		n.SetVal(val)
		n.Line = s.Pos.Line
		b.emit(n)

	case *minic.ReturnStmt:
		retVar := b.prog.Procs[b.proc].RetVar
		if s.Value != nil {
			b.lowerExprInto(retVar, s.Value, s.Pos.Line)
		} else {
			b.emit(b.newAssign(retVar, RHS{Kind: RConst, Const: 0}, s.Pos.Line))
		}
		b.prog.AddEdge(b.cur.ID, b.exit.ID)
		b.cur = nil

	case *minic.BreakStmt:
		lc := b.loops[len(b.loops)-1]
		b.prog.AddEdge(b.cur.ID, lc.after)
		b.cur = nil

	case *minic.ContinueStmt:
		lc := b.loops[len(b.loops)-1]
		b.prog.AddEdge(b.cur.ID, lc.head)
		b.cur = nil

	case *minic.IfStmt:
		b.lowerIf(s)

	case *minic.WhileStmt:
		b.lowerWhile(s)

	default:
		panic(fmt.Sprintf("ir: unknown statement %T", s))
	}
}

// loweredCond is the result of lowering a condition: either a folded
// constant outcome or a branch node with its assertion predicates.
type loweredCond struct {
	folded  bool
	outcome bool
	branch  *Node
}

// mirror returns the operator m such that (c op v) == (v m c).
func mirror(op pred.Op) pred.Op {
	switch op {
	case pred.Lt:
		return pred.Gt
	case pred.Le:
		return pred.Ge
	case pred.Gt:
		return pred.Lt
	case pred.Ge:
		return pred.Le
	}
	return op // Eq, Ne are symmetric
}

func (b *builder) lowerCond(c *minic.Cond) loweredCond {
	lhs := b.lowerOperand(c.Lhs)
	rhs := b.lowerOperand(c.Rhs)
	if lhs.IsConst && rhs.IsConst {
		return loweredCond{folded: true, outcome: c.Op.Eval(lhs.Const, rhs.Const)}
	}
	op := c.Op
	if lhs.IsConst {
		lhs, rhs = rhs, lhs
		op = mirror(op)
	}
	n := b.prog.NewNode(NBranch, b.proc)
	n.SetCond(lhs.Var, op, rhs)
	n.Line = c.Pos.Line
	return loweredCond{branch: n}
}

// branchArm prepares the true or false arm of a branch: it connects the
// branch to the arm's first node (an assert node for analyzable branches, a
// nop otherwise to keep Succs order stable) and makes it current.
func (b *builder) branchArm(br *Node, takeTrue bool) {
	var arm *Node
	if br.Analyzable() {
		pr := br.CondPred()
		if !takeTrue {
			pr = pr.Negate()
		}
		arm = b.newAssert(br.CondVar(), pr, br.Line)
	} else {
		arm = b.prog.NewNode(NNop, b.proc)
		arm.Line = br.Line
	}
	// Direct append keeps true before false in Succs.
	br.Succs = append(br.Succs, arm.ID)
	arm.Preds = append(arm.Preds, br.ID)
	b.cur = arm
}

func (b *builder) lowerIf(s *minic.IfStmt) {
	lc := b.lowerCond(s.Cond)
	if lc.folded {
		if lc.outcome {
			b.lowerBlock(s.Then)
		} else if s.Else != nil {
			b.lowerElse(s.Else)
		}
		return
	}
	b.emit(lc.branch)

	b.branchArm(lc.branch, true)
	b.lowerBlock(s.Then)
	thenEnd := b.cur

	b.branchArm(lc.branch, false)
	if s.Else != nil {
		b.lowerElse(s.Else)
	}
	elseEnd := b.cur

	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	join := b.prog.NewNode(NNop, b.proc)
	join.Line = s.Pos.Line
	if thenEnd != nil {
		b.prog.AddEdge(thenEnd.ID, join.ID)
	}
	if elseEnd != nil {
		b.prog.AddEdge(elseEnd.ID, join.ID)
	}
	b.cur = join
}

func (b *builder) lowerElse(s minic.Stmt) {
	if blk, ok := minic.ElseBlock(s); ok {
		b.lowerBlock(blk)
		return
	}
	b.lowerStmt(s)
}

func (b *builder) lowerWhile(s *minic.WhileStmt) {
	head := b.prog.NewNode(NNop, b.proc)
	head.Line = s.Pos.Line
	b.emit(head)

	lc := b.lowerCond(s.Cond)
	if lc.folded && !lc.outcome {
		// while (false): no body, no loop.
		return
	}

	after := b.prog.NewNode(NNop, b.proc)
	after.Line = s.Pos.Line
	b.loops = append(b.loops, loopCtx{head: head.ID, after: after.ID})

	if lc.folded { // while (true)
		b.lowerBlock(s.Body)
		if b.cur != nil {
			b.prog.AddEdge(b.cur.ID, head.ID)
		}
	} else {
		b.emit(lc.branch)
		b.branchArm(lc.branch, true)
		b.lowerBlock(s.Body)
		if b.cur != nil {
			b.prog.AddEdge(b.cur.ID, head.ID)
		}
		b.branchArm(lc.branch, false)
		b.prog.AddEdge(b.cur.ID, after.ID)
	}

	b.loops = b.loops[:len(b.loops)-1]
	if len(after.Preds) == 0 {
		// while(true) without break: everything after is unreachable.
		b.prog.DeleteNode(after.ID)
		b.cur = nil
		return
	}
	b.cur = after
}

// lowerOperand lowers an expression to an operand, emitting nodes for any
// subcomputations.
func (b *builder) lowerOperand(e minic.Expr) Operand {
	switch e := e.(type) {
	case *minic.NumLit:
		return ConstOp(e.Val)
	case *minic.VarRef:
		return VarOp(b.vars[e.Sym.ID])
	default:
		t := b.newTemp()
		b.lowerExprInto(t, e, e.Position().Line)
		return VarOp(t)
	}
}

// lowerExprInto lowers an expression, assigning its value to dst.
func (b *builder) lowerExprInto(dst VarID, e minic.Expr, line int32) {
	switch e := e.(type) {
	case *minic.NumLit:
		b.emit(b.newAssign(dst, RHS{Kind: RConst, Const: e.Val}, line))

	case *minic.VarRef:
		src := b.vars[e.Sym.ID]
		b.emit(b.newAssign(dst, RHS{Kind: RCopy, Src: src}, line))

	case *minic.NegExpr:
		op := b.lowerOperand(e.X)
		if op.IsConst {
			b.emit(b.newAssign(dst, RHS{Kind: RConst, Const: -op.Const}, line))
			return
		}
		b.emit(b.newAssign(dst, RHS{Kind: RNeg, Src: op.Var}, line))

	case *minic.BinExpr:
		a := b.lowerOperand(e.L)
		c := b.lowerOperand(e.R)
		if a.IsConst && c.IsConst {
			if v, ok := foldBinop(binOpOf(e.Op), a.Const, c.Const); ok {
				b.emit(b.newAssign(dst, RHS{Kind: RConst, Const: v}, line))
				return
			}
		}
		b.emit(b.newAssign(dst, RHS{Kind: RBinop, Op: binOpOf(e.Op), A: a, B: c}, line))

	case *minic.IndexExpr:
		ptr := b.vars[e.Sym.ID]
		idx := b.lowerOperand(e.Index)
		b.emit(b.newAssign(dst, RHS{Kind: RLoad, Src: ptr, A: idx}, line))
		// The load dereferenced ptr, so ptr != 0 afterwards — unless the
		// load just overwrote ptr itself (e.g. list = list[1]), in which
		// case the fact applies to the old value and must not be asserted.
		if dst != ptr {
			b.emit(b.newAssert(ptr, pred.Pred{Op: pred.Ne, C: 0}, line))
		}

	case *minic.CallExpr:
		switch e.Name {
		case minic.BuiltinAlloc:
			size := b.lowerOperand(e.Args[0])
			b.emit(b.newAssign(dst, RHS{Kind: RAlloc, A: size}, line))
		case minic.BuiltinByte:
			src := b.lowerOperand(e.Args[0])
			if src.IsConst {
				b.emit(b.newAssign(dst, RHS{Kind: RConst, Const: src.Const & 0xFF}, line))
				return
			}
			b.emit(b.newAssign(dst, RHS{Kind: RByte, Src: src.Var}, line))
		case minic.BuiltinInput:
			b.emit(b.newAssign(dst, RHS{Kind: RInput}, line))
		default:
			b.lowerCall(e, dst, line)
		}

	default:
		panic(fmt.Sprintf("ir: unknown expression %T", e))
	}
}

// lowerCall lowers a procedure call, leaving the result in dst (or
// discarding it when dst == NoVar). The interprocedural edges are wired in
// the link phase.
func (b *builder) lowerCall(call *minic.CallExpr, dst VarID, line int32) {
	callee := b.info.ProcIdx[call.Name]
	args := make([]VarID, len(call.Args))
	for i, a := range call.Args {
		op := b.lowerOperand(a)
		if op.IsConst {
			t := b.newTemp()
			b.emit(b.newAssign(t, RHS{Kind: RConst, Const: op.Const}, line))
			args[i] = t
		} else {
			args[i] = op.Var
		}
	}
	cn := b.prog.NewNode(NCall, b.proc)
	cn.Callee = int32(callee)
	cn.Args = args
	cn.Line = line
	b.emit(cn)

	ce := b.prog.NewNode(NCallExit, b.proc)
	ce.Callee = int32(callee)
	ce.Dst = dst
	ce.Line = line
	if dst == NoVar {
		ce.Synthetic = true
	}
	b.prog.AddEdge(cn.ID, ce.ID)
	b.cur = ce
}

func binOpOf(op minic.BinOp) BinOp {
	switch op {
	case minic.OpAdd:
		return OpAdd
	case minic.OpSub:
		return OpSub
	case minic.OpMul:
		return OpMul
	case minic.OpDiv:
		return OpDiv
	case minic.OpMod:
		return OpMod
	}
	panic("ir: unknown binop")
}

// foldBinop constant-folds a binary operation; division and modulo by zero
// are left to runtime.
func foldBinop(op BinOp, a, c int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + c, true
	case OpSub:
		return a - c, true
	case OpMul:
		return a * c, true
	case OpDiv:
		if c == 0 {
			return 0, false
		}
		return a / c, true
	case OpMod:
		if c == 0 {
			return 0, false
		}
		return a % c, true
	}
	return 0, false
}
