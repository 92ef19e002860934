// Package ir defines the interprocedural control flow graph (ICFG) that the
// ICBE analysis and restructuring operate on, and the lowering from MiniC
// ASTs onto it.
//
// The ICFG follows the paper's representation (Bodík/Gupta/Soffa, PLDI'97,
// Figure 3): the control flow graphs of all procedures are combined by
// connecting procedure entry and exit nodes with their call sites. Each
// procedure may have multiple entry nodes and multiple exit nodes (created
// by entry/exit splitting). The graph is kept in *call-site normal form*:
//
//	(a) each call site node has exactly one procedure-entry successor, and
//	(b) each call-site-exit node has exactly one call-site predecessor and
//	    one procedure-exit predecessor.
//
// Nodes hold at most one statement. Branch out-edges materialize their
// assertions as synthetic Assert nodes so that the correlation analysis is
// purely node-based.
package ir

import (
	"fmt"
	"slices"

	"icbe/internal/pred"
)

// VarID identifies a variable in the program's variable arena.
type VarID int32

// NoVar marks an absent variable (e.g. a discarded call result).
const NoVar VarID = -1

// NodeID identifies a node in the program's node arena.
type NodeID int32

// NoNode marks an absent node reference.
const NoNode NodeID = -1

// VarKind classifies variables.
type VarKind uint8

// Variable kinds. Temps are compiler-generated; Ret holds a procedure's
// return value.
const (
	VarGlobal VarKind = iota
	VarParam
	VarLocal
	VarTemp
	VarRet
)

func (k VarKind) String() string {
	switch k {
	case VarGlobal:
		return "global"
	case VarParam:
		return "param"
	case VarLocal:
		return "local"
	case VarTemp:
		return "temp"
	case VarRet:
		return "ret"
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// Var is a program variable. Globals have Proc == -1. Field order is
// size-descending to minimize padding.
type Var struct {
	Name string
	Init int64 // initial value (globals only)
	Proc int   // owning procedure index, -1 for globals
	ID   VarID
	Kind VarKind
}

// IsGlobal reports whether the variable is a global.
func (v *Var) IsGlobal() bool { return v.Kind == VarGlobal }

// NodeKind enumerates ICFG node kinds.
type NodeKind uint8

// Node kinds.
const (
	NEntry    NodeKind = iota // procedure entry (dummy)
	NExit                     // procedure exit (dummy)
	NCall                     // call site node (dummy, carries arg bindings)
	NCallExit                 // call-site exit: dst := returned value
	NAssign                   // dst := rhs
	NBranch                   // conditional branch on (var relop operand)
	NAssert                   // synthetic assertion (var relop const) holds here
	NStore                    // heap[ptr+idx] := val
	NPrint                    // append val to program output
	NNop                      // synthetic empty node (joins, loop headers)
)

func (k NodeKind) String() string {
	switch k {
	case NEntry:
		return "entry"
	case NExit:
		return "exit"
	case NCall:
		return "call"
	case NCallExit:
		return "callexit"
	case NAssign:
		return "assign"
	case NBranch:
		return "branch"
	case NAssert:
		return "assert"
	case NStore:
		return "store"
	case NPrint:
		return "print"
	case NNop:
		return "nop"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// RHSKind enumerates right-hand sides of assignments.
type RHSKind uint8

// Assignment right-hand-side kinds.
const (
	RConst RHSKind = iota // constant
	RCopy                 // copy of another variable
	RNeg                  // arithmetic negation of a variable
	RByte                 // low 8 bits of a variable; result in [0,255]
	RBinop                // binary arithmetic on two operands
	RLoad                 // heap load ptr[idx]
	RAlloc                // heap allocation of size cells
	RInput                // next input value, or -1 when exhausted
)

func (k RHSKind) String() string {
	switch k {
	case RConst:
		return "const"
	case RCopy:
		return "copy"
	case RNeg:
		return "neg"
	case RByte:
		return "byte"
	case RBinop:
		return "binop"
	case RLoad:
		return "load"
	case RAlloc:
		return "alloc"
	case RInput:
		return "input"
	}
	return fmt.Sprintf("RHSKind(%d)", int(k))
}

// BinOp enumerates arithmetic operators on the IR level.
type BinOp uint8

// IR arithmetic operators.
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

// Operand is a variable or an immediate constant. Field order is
// size-descending to minimize padding (operands are embedded in every
// Node).
type Operand struct {
	Const   int64
	Var     VarID
	IsConst bool
}

// ConstOp returns a constant operand.
func ConstOp(c int64) Operand { return Operand{IsConst: true, Const: c} }

// VarOp returns a variable operand.
func VarOp(v VarID) Operand { return Operand{Var: v} }

func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return fmt.Sprintf("v%d", int(o.Var))
}

// RHS is the right-hand side of an assignment node. Field order is
// size-descending to minimize padding.
type RHS struct {
	Const int64   // RConst
	A, B  Operand // RBinop operands; RLoad index in A; RAlloc size in A
	Src   VarID   // RCopy, RNeg, RByte; pointer for RLoad
	Kind  RHSKind
	Op    BinOp // RBinop
}

// Node is a single ICFG node. Nodes dominate the optimizer's allocation
// profile (a build makes one per statement, a fork privatizes a node by
// copying it, and Clone copies the whole arena), so a node does not carry
// every kind's payload side by side: the kinds share one payload block,
// read and written through accessors named after what each kind keeps
// there.
//
//	kind            accessors                  slots
//	NAssign         Dst, RHS                   Dst, rhs
//	NCallExit       Dst, RHS, Callee           Dst, rhs, Callee
//	NBranch, NNop   CondVar, CondOp, CondRHS   v, op, rhs.A
//	NAssert         AVar, APred                v, op, rhs.Const
//	NStore          Ptr, Idx, Val              v, rhs.A, rhs.B
//	NPrint          Val                        rhs.B
//	NCall           Callee, Args               Callee, Args
//
// A nop keeps the condition of the branch it was demoted from (the
// restructurer, the prune and fold decide a branch and demote it in place),
// and the codec writes it under the branch's names. The accessors do not
// check the kind: read another kind's payload and you get whatever shares
// its slot, so every reader switches on Kind first.
type Node struct {
	Succs []NodeID
	Preds []NodeID

	// NCall: argument variables (1:1 with the callee's formals).
	Args []VarID

	rhs RHS

	Proc int // owning procedure index

	// v is the branch's condition variable, the assert's variable or the
	// store's pointer.
	v VarID

	ID  NodeID
	Dst VarID // NAssign / NCallExit destination; NoVar elsewhere

	Line int32 // source line, for diagnostics
	// NCall: callee procedure index. NCallExit: the procedure returned
	// from.
	Callee int32

	Kind NodeKind

	// op is the branch's relational operator or the assert's predicate op.
	op pred.Op

	// Synthetic nodes (entry, exit, call, asserts, nops) carry no program
	// operation; they are excluded from operation counts and may be
	// duplicated freely.
	Synthetic bool
}

// RHS returns the assigned value of an NAssign or NCallExit node. The
// pointer is into the node: write through it only on a node from Mut.
func (n *Node) RHS() *RHS { return &n.rhs }

// SetRHS sets the assigned value of an NAssign or NCallExit node.
func (n *Node) SetRHS(r RHS) { n.rhs = r }

// CondVar returns the condition variable of an NBranch (or of the branch
// an NNop was demoted from).
func (n *Node) CondVar() VarID { return n.v }

// CondOp returns the relational operator of an NBranch's condition.
func (n *Node) CondOp() pred.Op { return n.op }

// CondRHS returns the right operand of an NBranch's condition. The branch
// is analyzable when it is a constant. Succs[0] is the true successor,
// Succs[1] the false successor.
func (n *Node) CondRHS() Operand { return n.rhs.A }

// SetCond sets an NBranch's condition (v op rhs).
func (n *Node) SetCond(v VarID, op pred.Op, rhs Operand) {
	n.v, n.op, n.rhs.A = v, op, rhs
}

// AVar returns the variable of an NAssert: the fact (AVar APred) holds on
// entry to the node's successor. Assert nodes are synthetic.
func (n *Node) AVar() VarID { return n.v }

// APred returns the predicate of an NAssert.
func (n *Node) APred() pred.Pred { return pred.Pred{Op: n.op, C: n.rhs.Const} }

// SetAssert sets an NAssert's fact (v pr).
func (n *Node) SetAssert(v VarID, pr pred.Pred) {
	n.v, n.op, n.rhs.Const = v, pr.Op, pr.C
}

// Ptr returns the pointer of an NStore: heap[Ptr+Idx] := Val.
func (n *Node) Ptr() VarID { return n.v }

// Idx returns the index operand of an NStore.
func (n *Node) Idx() Operand { return n.rhs.A }

// Val returns the stored value of an NStore or the printed value of an
// NPrint.
func (n *Node) Val() Operand { return n.rhs.B }

// SetStore sets an NStore's operation heap[ptr+idx] := val.
func (n *Node) SetStore(ptr VarID, idx, val Operand) {
	n.v, n.rhs.A, n.rhs.B = ptr, idx, val
}

// SetVal sets the printed value of an NPrint.
func (n *Node) SetVal(val Operand) { n.rhs.B = val }

// CopyPayload makes n carry m's payload: Dst, the payload block, Callee and
// a copy of Args.
func (n *Node) CopyPayload(m *Node) {
	n.Dst, n.rhs, n.v, n.op, n.Callee = m.Dst, m.rhs, m.v, m.op, m.Callee
	n.Args = append([]VarID(nil), m.Args...)
}

// SamePayload reports whether n and m carry the same payload.
func (n *Node) SamePayload(m *Node) bool {
	return n.Dst == m.Dst && n.rhs == m.rhs && n.v == m.v && n.op == m.op &&
		n.Callee == m.Callee && slices.Equal(n.Args, m.Args)
}

// IsOperation reports whether the node represents a real program operation
// (counted in code-size and path-length metrics).
func (n *Node) IsOperation() bool {
	switch n.Kind {
	case NAssign, NBranch, NStore, NPrint:
		return true
	case NCall:
		return true
	case NCallExit:
		return n.Dst != NoVar
	}
	return false
}

// IsBranch reports whether the node is a conditional branch.
func (n *Node) IsBranch() bool { return n.Kind == NBranch }

// Analyzable reports whether a branch node matches the (var relop const)
// pattern handled by the correlation analysis.
func (n *Node) Analyzable() bool { return n.Kind == NBranch && n.rhs.A.IsConst }

// CondPred returns the predicate of an analyzable branch.
func (n *Node) CondPred() pred.Pred {
	if !n.Analyzable() {
		panic(fmt.Sprintf("ir: CondPred on non-analyzable node %d (%s)", n.ID, n.Kind))
	}
	return pred.Pred{Op: n.op, C: n.rhs.A.Const}
}

// TrueSucc returns the true-edge successor of a branch.
func (n *Node) TrueSucc() NodeID { return n.Succs[0] }

// FalseSucc returns the false-edge successor of a branch.
func (n *Node) FalseSucc() NodeID { return n.Succs[1] }

// Proc is a procedure of the program. After restructuring a procedure may
// have several entries and exits. Formals is never written after
// construction; on a forked or shared program Entries and Exits are edited
// only through Program.MutProc.
type Proc struct {
	Name    string
	Index   int
	Formals []VarID
	RetVar  VarID
	Entries []NodeID
	Exits   []NodeID
	// owner is the token of the program that copied the header (MutProc),
	// zero for a header made by a build, decode or clone.
	owner uint64
}

// Program is a complete ICFG with its variable arena.
//
// The node table is paged: a directory of fixed pages of pageSize node
// slots. A program built, decoded or cloned
// owns every page, procedure header and node and writes them in place.
// Once it is forked (see Fork), or marked shared (Share), it owns nothing
// it had: a write first copies the directory, page, header or node it lands in,
// so both sides must write only through the mutators (NewNode, AddEdge,
// RemoveEdge, RedirectSucc, DeleteNode) or through pointers from Mut and
// MutProc. A direct write through a pointer from Node, LiveNodes or Procs
// would reach every program sharing it. The optimization driver forks its
// input and, once per transactional attempt, the working program, and
// never writes a program it forked.
//
// A program the driver adopted is marked settled (Settle): it passed
// Validate and ended with a prune, so it is valid and at a prune fixpoint.
// On a fork of a settled program (Local) the per-attempt passes — the
// restructurer's prune and scans, and Validate — look only at the region
// around the nodes the fork touched, since every other node is shared with
// the settled program and unchanged. A write that bypasses Mut therefore
// escapes validation as well as isolation.
type Program struct {
	// Procs is the procedure table. Once the program is forked or shared,
	// the slice and the headers are shared too: edit a header's Entries or
	// Exits only through MutProc.
	Procs []*Proc
	// Vars is the variable arena. Var structs are never written after
	// construction; a fork shares them with its length as capacity, so
	// NewVar on either side never writes the other's slots.
	Vars     []*Var
	MainProc int
	// SourceLines is the number of source lines the program was built from
	// (for Table 1 reporting).
	SourceLines int
	// pages is the node table's page directory; deleted nodes are nil
	// slots. numNodes is the arena size: every slot below it lies on a page.
	pages    []*nodePage
	numNodes int
	// nodePool is the spare capacity NewNode hands nodes out of, so building
	// and restructuring do not pay one heap allocation per node. edgePool
	// seeds fresh Succs/Preds lists the same way: almost every node has one
	// or two edges each way, and growing them from nil is otherwise the
	// hottest allocation in a build.
	nodePool []Node
	edgePool []NodeID
	varPool  []Var
	// cow is set once the program was forked, is a fork, or was shared: it
	// then owns only what carries its token — the page directory and
	// procedure list when pagesOwner and procsOwner match it, pages and
	// headers whose owner matches it, and of an owned page the nodes
	// marked in its own bits (privatized or created since the fork).
	// token is drawn on the first write after the program lost its
	// ownership, so a shared program that is only read is never written.
	cow        bool
	token      uint64
	pagesOwner uint64
	procsOwner uint64
	// touched lists the nodes privatized, created or deleted since the
	// program was made by Fork or last forked.
	touched []NodeID
	// sorted is touched in ascending order, as of the last RegionNodes
	// call on a Local program (see sortedTouched).
	sorted []NodeID
	// prior[i] is the node touched[i] replaced at its first touch: the
	// version shared with the program this one was forked from, nil for a
	// node created since.
	prior []*Node
	// settled marks a valid program at a prune fixpoint (Settle); a write
	// through the mutators clears it. base is set on a fork of a settled
	// program (Local) and keeps what the region Validate diffs against.
	settled bool
	base    *forkBase
}

// forkBase is the part of a settled program a fork's region Validate needs
// beyond the nodes it touched: the settled program's procedure headers
// (a fork copies a header before editing it, so these keep the settled
// entry and exit lists) and its variable count.
type forkBase struct {
	procs []*Proc
	vars  int
}

// newEdgeList returns an empty edge list with room for two entries carved
// from the pool; appending past two falls back to the normal grow path.
func (p *Program) newEdgeList() []NodeID { return p.carveEdges(2) }

// Var returns the variable with the given id.
func (p *Program) Var(id VarID) *Var { return p.Vars[id] }

// NewVar appends a variable to the arena.
func (p *Program) NewVar(name string, kind VarKind, proc int) VarID {
	if len(p.varPool) == 0 {
		p.varPool = make([]Var, 64)
	}
	v := &p.varPool[0]
	p.varPool = p.varPool[1:]
	id := VarID(len(p.Vars))
	*v = Var{ID: id, Name: name, Kind: kind, Proc: proc}
	p.Vars = append(p.Vars, v)
	return id
}

// NewNode appends a node of the given kind to the arena.
func (p *Program) NewNode(kind NodeKind, proc int) *Node {
	n := p.allocNode()
	id := NodeID(p.numNodes)
	*n = Node{ID: id, Kind: kind, Proc: proc, Dst: NoVar}
	switch kind {
	case NEntry, NExit, NCall, NAssert, NNop:
		n.Synthetic = true
	}
	p.extend(p.numNodes + 1)
	p.settled = false
	p.store(id, n, nil)
	return n
}

// AddEdge inserts the edge from → to, keeping Succs/Preds consistent.
// Parallel edges are permitted only for branches whose two arms reach the
// same node; elsewhere a duplicate edge is ignored.
func (p *Program) AddEdge(from, to NodeID) {
	if f := p.Node(from); f.Kind != NBranch {
		for _, s := range f.Succs {
			if s == to {
				return
			}
		}
	}
	f, t := p.Mut(from), p.Mut(to)
	if f.Succs == nil {
		f.Succs = p.newEdgeList()
	}
	if t.Preds == nil {
		t.Preds = p.newEdgeList()
	}
	f.Succs = append(f.Succs, to)
	t.Preds = append(t.Preds, from)
}

// RemoveEdge deletes one instance of the edge from → to.
func (p *Program) RemoveEdge(from, to NodeID) {
	f, t := p.Mut(from), p.Mut(to)
	f.Succs = removeOne(f.Succs, to)
	t.Preds = removeOne(t.Preds, from)
}

func removeOne(ids []NodeID, x NodeID) []NodeID {
	for i, id := range ids {
		if id == x {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// RedirectSucc replaces the successor old of node from with new, preserving
// edge order (important for branch true/false arms).
func (p *Program) RedirectSucc(from, old, new NodeID) {
	f := p.Mut(from)
	replaced := false
	for i, s := range f.Succs {
		if s == old {
			f.Succs[i] = new
			replaced = true
			break
		}
	}
	if !replaced {
		panic(fmt.Sprintf("ir: RedirectSucc: %d is not a successor of %d", old, from))
	}
	o := p.Mut(old)
	o.Preds = removeOne(o.Preds, from)
	t := p.Mut(new)
	t.Preds = append(t.Preds, from)
}

// DeleteNode removes a node and all its incident edges from the graph. Only
// the neighbors' edge lists are rewritten: the node itself is dropped, so a
// fork does not privatize it first.
func (p *Program) DeleteNode(id NodeID) {
	n := p.Node(id)
	if n == nil {
		return
	}
	for _, s := range n.Succs {
		t := p.Mut(s)
		t.Preds = removeOne(t.Preds, id)
	}
	for _, m := range n.Preds {
		f := p.Mut(m)
		f.Succs = removeOne(f.Succs, id)
	}
	p.settled = false
	p.store(id, nil, n)
}

// EntrySucc returns the unique procedure-entry successor of a call node.
func (p *Program) EntrySucc(call *Node) *Node {
	var entry *Node
	for _, s := range call.Succs {
		if sn := p.Node(s); sn != nil && sn.Kind == NEntry {
			if entry != nil {
				panic(fmt.Sprintf("ir: call node %d has multiple entry successors", call.ID))
			}
			entry = sn
		}
	}
	if entry == nil {
		panic(fmt.Sprintf("ir: call node %d has no entry successor", call.ID))
	}
	return entry
}

// CallExitSuccs returns the call-site-exit successors of a call node.
func (p *Program) CallExitSuccs(call *Node) []*Node {
	var out []*Node
	for _, s := range call.Succs {
		if sn := p.Node(s); sn != nil && sn.Kind == NCallExit {
			out = append(out, sn)
		}
	}
	return out
}

// CallSite returns the call and procedure-exit predecessors of a
// call-site-exit node in one pass over its Preds. Each is NoNode unless
// exactly one predecessor of that kind exists.
func (p *Program) CallSite(ce *Node) (call, exit NodeID) {
	call, exit = NoNode, NoNode
	calls, exits := 0, 0
	for _, m := range ce.Preds {
		mn := p.Node(m)
		if mn == nil {
			continue
		}
		switch mn.Kind {
		case NCall:
			call = m
			calls++
		case NExit:
			exit = m
			exits++
		}
	}
	if calls != 1 {
		call = NoNode
	}
	if exits != 1 {
		exit = NoNode
	}
	return call, exit
}

// NodesByProc buckets the live nodes by owning procedure in one pass over
// the arena: element i lists procedure i's nodes in ID order.
func (p *Program) NodesByProc() [][]*Node {
	out := make([][]*Node, len(p.Procs))
	p.LiveNodes(func(n *Node) {
		if n.Proc >= 0 && n.Proc < len(out) {
			out[n.Proc] = append(out[n.Proc], n)
		}
	})
	return out
}

// ProcByName returns the procedure with the given name, or nil.
func (p *Program) ProcByName(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}
