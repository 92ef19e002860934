// Package interp executes ICFG programs directly. It serves two roles in
// the reproduction: it produces the dynamic profiles (per-node execution
// counts) that weight the paper's dynamic measurements, and it is the
// semantic oracle for the restructuring transformation — an optimized
// program must produce identical output and must not execute more
// operations than the original on any input.
package interp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"icbe/internal/ir"
)

// Options configures a program run.
type Options struct {
	// Input is the stream consumed by input(); when exhausted, input()
	// returns -1 (the EOF model of the paper's stdio example).
	Input []int64
	// MaxSteps bounds the number of executed nodes (0 means the default of
	// 50 million). Exceeding it is reported as an error.
	MaxSteps int64
	// Profile enables per-node execution counting.
	Profile bool
}

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 50_000_000

// ErrStepLimit categorizes a RuntimeError caused by exhausting
// Options.MaxSteps. It is exposed as a sentinel so callers can distinguish
// "the run was too slow for its budget" from genuine faults (nil
// dereference, division by zero) with errors.Is(err, interp.ErrStepLimit) —
// the restructuring driver's shadow-execution oracle skips budget-exhausted
// inputs instead of reporting them as miscompilations.
var ErrStepLimit = errors.New("step limit exceeded")

// Result summarizes an execution.
type Result struct {
	// Output collects the values printed by the program, in order.
	Output []int64
	// Steps counts every executed node, including synthetic ones.
	Steps int64
	// Operations counts executed operation nodes (the paper's unit for the
	// safety guarantee: restructuring never lengthens any path).
	Operations int64
	// CondExecs counts executed conditional branch nodes.
	CondExecs int64
	// ExecCount maps node IDs to execution counts (when Options.Profile).
	ExecCount map[ir.NodeID]int64
}

// RuntimeError is an execution failure (nil dereference, division by zero,
// step limit, missing return point).
type RuntimeError struct {
	Node ir.NodeID
	Line int
	Msg  string
	// Err, when non-nil, is a sentinel categorizing the failure (currently
	// only ErrStepLimit); it is returned by Unwrap so errors.Is works.
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at node %d (line %d): %s", e.Node, e.Line, e.Msg)
}

// Unwrap exposes the categorizing sentinel, if any.
func (e *RuntimeError) Unwrap() error { return e.Err }

// frame is one activation. Its locals live in machine.stack from base on,
// one slot per variable its procedure owns (machine.vars).
type frame struct {
	proc     int32
	base     int
	callNode ir.NodeID // NCall node that created this frame; NoNode for main
	// foreign holds locals of other procedures, which only a graph
	// ir.Validate rejects can reference; it is created on first write.
	foreign map[ir.VarID]int64
}

// varLoc says where a variable lives: a global at globals[VarID], a local
// at slot of its owning procedure's frames.
type varLoc struct {
	global bool
	proc   int32 // owning procedure, -1 when it names none
	slot   int32
}

type machine struct {
	prog    *ir.Program
	nodes   []*ir.Node // prog's nodes by ID, looked up on every step
	opts    Options
	vars    []varLoc
	globals []int64
	size    []int32 // by procedure: frame size in slots
	stack   []int64 // locals of every live frame, innermost last
	heap    []int64
	frames  []frame
	// rets holds, per frame but main's, its call's call-site-exit
	// successor as enter finds it. It is kept apart from frame, which the
	// step loop copies and which a fifth field would make costlier.
	rets   []ir.NodeID
	counts []int64 // by node ID, when Options.Profile
	extra  map[ir.NodeID]int64
	inPos  int
	res    *Result
}

// nodeBufs holds the node buffers of finished runs, cleared.
var nodeBufs = sync.Pool{New: func() any { return new([]*ir.Node) }}

// Run executes the program from main's entry until main's exit. The
// returned Result is valid (partially filled) even when an error occurred.
func Run(p *ir.Program, opts Options) (*Result, error) {
	m := &machine{
		prog:    p,
		opts:    opts,
		vars:    make([]varLoc, len(p.Vars)),
		globals: make([]int64, len(p.Vars)),
		heap:    make([]int64, 1), // heap[0] unused; 0 is the nil pointer
		res:     &Result{},
	}
	// A flat copy of the paged node table, in a buffer reused across runs:
	// the step loop's lookups then cost one load, as the interpreter's
	// time goes to following edges.
	buf := nodeBufs.Get().(*[]*ir.Node)
	m.nodes = p.AppendNodes((*buf)[:0])
	defer func() {
		clear(m.nodes)
		*buf = m.nodes
		nodeBufs.Put(buf)
	}()
	m.size = make([]int32, len(p.Procs))
	for i, v := range p.Vars {
		loc := &m.vars[i]
		switch {
		case v.IsGlobal():
			loc.global = true
			m.globals[v.ID] = v.Init
		case v.Proc >= 0 && v.Proc < len(p.Procs):
			loc.proc, loc.slot = int32(v.Proc), m.size[v.Proc]
			m.size[v.Proc]++
		default:
			loc.proc = -1
		}
	}
	if opts.Profile {
		m.counts = make([]int64, p.NumNodes())
	}
	err := m.run()
	if opts.Profile {
		m.res.ExecCount = make(map[ir.NodeID]int64)
		for id, c := range m.counts {
			if c != 0 {
				m.res.ExecCount[ir.NodeID(id)] = c
			}
		}
		for id, c := range m.extra {
			m.res.ExecCount[id] = c
		}
	}
	return m.res, err
}

// run executes until main returns or a fault.
func (m *machine) run() error {
	p := m.prog
	maxSteps := m.opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	main := p.Procs[p.MainProc]
	m.push(p.MainProc, ir.NoNode)
	cur := p.Node(main.Entries[0])
	var retVal int64 // value carried from an exit to its call-site exit

	for {
		if cur == nil {
			return &RuntimeError{Node: ir.NoNode, Line: 0, Msg: "control reached a deleted node"}
		}
		m.res.Steps++
		if m.res.Steps > maxSteps {
			return &RuntimeError{Node: cur.ID, Line: int(cur.Line), Msg: "step limit exceeded", Err: ErrStepLimit}
		}
		if m.counts != nil {
			m.count(cur.ID)
		}
		if cur.IsOperation() {
			m.res.Operations++
		}

		switch cur.Kind {
		case ir.NEntry, ir.NNop:
			cur = m.onlySucc(cur)

		case ir.NAssert:
			// Asserts are compiler-established facts; a violation means the
			// graph was miscompiled or incorrectly restructured.
			if !cur.APred().Eval(m.read(cur.AVar())) {
				return &RuntimeError{Node: cur.ID, Line: int(cur.Line),
					Msg: fmt.Sprintf("internal: assertion %s %s violated (value %d)",
						m.prog.VarName(cur.AVar()), cur.APred(), m.read(cur.AVar()))}
			}
			cur = m.onlySucc(cur)

		case ir.NAssign:
			v, err := m.evalRHS(cur)
			if err != nil {
				return err
			}
			m.write(cur.Dst, v)
			cur = m.onlySucc(cur)

		case ir.NBranch:
			m.res.CondExecs++
			lhs := m.read(cur.CondVar())
			rhs := cur.CondRHS().Const
			if !cur.CondRHS().IsConst {
				rhs = m.read(cur.CondRHS().Var)
			}
			if cur.CondOp().Eval(lhs, rhs) {
				cur = m.node(cur.TrueSucc())
			} else {
				cur = m.node(cur.FalseSucc())
			}

		case ir.NPrint:
			m.res.Output = append(m.res.Output, m.operand(cur.Val()))
			cur = m.onlySucc(cur)

		case ir.NStore:
			ptr := m.read(cur.Ptr())
			idx := m.operand(cur.Idx())
			if err := m.checkAddr(cur, ptr, idx); err != nil {
				return err
			}
			m.heap[ptr+idx] = m.operand(cur.Val())
			cur = m.onlySucc(cur)

		case ir.NCall:
			callee := m.prog.Procs[cur.Callee]
			m.push(int(cur.Callee), cur.ID)
			caller := &m.frames[len(m.frames)-2]
			for i, formal := range callee.Formals {
				x := m.readIn(caller, cur.Args[i])
				// A global formal's frame entry would never be read: reads
				// of a global go to globals.
				if !m.vars[formal].global {
					m.write(formal, x)
				}
			}
			cur = m.enter(cur)

		case ir.NExit:
			top := m.frames[len(m.frames)-1]
			retVal = m.read(m.prog.Procs[top.proc].RetVar)
			m.frames = m.frames[:len(m.frames)-1]
			m.stack = m.stack[:top.base]
			if top.callNode == ir.NoNode {
				// main returned: program halts.
				return nil
			}
			ret := m.returnPoint(cur, top.callNode)
			if ret == nil {
				return &RuntimeError{Node: cur.ID, Line: int(cur.Line),
					Msg: fmt.Sprintf("internal: exit of %s has no return point for call node %d",
						m.prog.Procs[cur.Proc].Name, top.callNode)}
			}
			cur = ret

		case ir.NCallExit:
			if cur.Dst != ir.NoVar {
				m.write(cur.Dst, retVal)
			}
			cur = m.onlySucc(cur)

		default:
			return &RuntimeError{Node: cur.ID, Line: int(cur.Line),
				Msg: fmt.Sprintf("internal: unexecutable node kind %s", cur.Kind)}
		}
	}
}

// enter returns the call's entry and records its return point on rets:
// its call-site-exit successor, NoNode unless it has exactly one. A call
// without exactly one entry successor panics in EntrySucc. The call and
// return bookkeeping lives outside run's step loop, whose other cases it
// would slow.
func (m *machine) enter(call *ir.Node) *ir.Node {
	var entry *ir.Node
	ret := ir.NoNode
	entries, rets := 0, 0
	for _, s := range call.Succs {
		sn := m.node(s)
		if sn == nil {
			continue
		}
		switch sn.Kind {
		case ir.NEntry:
			entry = sn
			entries++
		case ir.NCallExit:
			ret = s
			rets++
		}
	}
	if rets != 1 {
		ret = ir.NoNode
	}
	m.rets = append(m.rets, ret)
	if entries != 1 {
		return m.prog.EntrySucc(call)
	}
	return entry
}

// returnPoint pops the frame's recorded return point and returns the first
// call-site-exit successor of the exit whose call is callNode, nil when
// there is none. When the recorded node's predecessors are exactly the
// call and this exit, it is that node: with symmetric edges the exit
// reaches it, and any other such successor would be a second call-site
// exit of the call, for which enter records none. Otherwise the exit's
// successors are searched.
func (m *machine) returnPoint(exit *ir.Node, callNode ir.NodeID) *ir.Node {
	rec := m.node(m.rets[len(m.rets)-1])
	m.rets = m.rets[:len(m.rets)-1]
	if rec != nil && len(rec.Preds) == 2 &&
		(rec.Preds[0] == callNode && rec.Preds[1] == exit.ID || rec.Preds[0] == exit.ID && rec.Preds[1] == callNode) {
		return rec
	}
	for _, s := range exit.Succs {
		ce := m.node(s)
		if ce == nil || ce.Kind != ir.NCallExit || !slices.Contains(ce.Preds, callNode) {
			continue
		}
		if call, _ := m.prog.CallSite(ce); call == callNode {
			return ce
		}
	}
	return nil
}

// push opens a frame for proc with its slots zeroed.
func (m *machine) push(proc int, callNode ir.NodeID) {
	base, n := len(m.stack), int(m.size[proc])
	m.stack = slices.Grow(m.stack, n)[:base+n]
	clear(m.stack[base:])
	m.frames = append(m.frames, frame{proc: int32(proc), base: base, callNode: callNode})
}

// count records one execution of node id. A node whose ID lies outside
// the arena (only on a hand-corrupted graph) is counted in extra.
func (m *machine) count(id ir.NodeID) {
	if id >= 0 && int(id) < len(m.counts) {
		m.counts[id]++
		return
	}
	if m.extra == nil {
		m.extra = make(map[ir.NodeID]int64)
	}
	m.extra[id]++
}

// node is ir.Program.Node on the flat copy.
func (m *machine) node(id ir.NodeID) *ir.Node {
	if id < 0 || int(id) >= len(m.nodes) {
		return nil
	}
	return m.nodes[id]
}

func (m *machine) onlySucc(n *ir.Node) *ir.Node {
	if len(n.Succs) != 1 {
		return nil
	}
	return m.node(n.Succs[0])
}

// read returns v's value in the innermost frame.
func (m *machine) read(v ir.VarID) int64 {
	return m.readIn(&m.frames[len(m.frames)-1], v)
}

func (m *machine) readIn(f *frame, v ir.VarID) int64 {
	loc := m.vars[v]
	if loc.global {
		return m.globals[v]
	}
	if loc.proc == f.proc {
		return m.stack[f.base+int(loc.slot)]
	}
	return f.foreign[v]
}

func (m *machine) write(v ir.VarID, x int64) {
	loc := m.vars[v]
	if loc.global {
		m.globals[v] = x
		return
	}
	f := &m.frames[len(m.frames)-1]
	if loc.proc == f.proc {
		m.stack[f.base+int(loc.slot)] = x
		return
	}
	if f.foreign == nil {
		f.foreign = make(map[ir.VarID]int64)
	}
	f.foreign[v] = x
}

func (m *machine) operand(o ir.Operand) int64 {
	if o.IsConst {
		return o.Const
	}
	return m.read(o.Var)
}

func (m *machine) checkAddr(n *ir.Node, ptr, idx int64) error {
	if ptr == 0 {
		return &RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "nil pointer dereference"}
	}
	addr := ptr + idx
	if addr < 1 || addr >= int64(len(m.heap)) {
		return &RuntimeError{Node: n.ID, Line: int(n.Line),
			Msg: fmt.Sprintf("heap access out of bounds (addr %d, heap size %d)", addr, len(m.heap))}
	}
	return nil
}

func (m *machine) evalRHS(n *ir.Node) (int64, error) {
	r := n.RHS()
	switch r.Kind {
	case ir.RConst:
		return r.Const, nil
	case ir.RCopy:
		return m.read(r.Src), nil
	case ir.RNeg:
		return -m.read(r.Src), nil
	case ir.RByte:
		return m.read(r.Src) & 0xFF, nil
	case ir.RBinop:
		a := m.operand(r.A)
		b := m.operand(r.B)
		switch r.Op {
		case ir.OpAdd:
			return a + b, nil
		case ir.OpSub:
			return a - b, nil
		case ir.OpMul:
			return a * b, nil
		case ir.OpDiv:
			if b == 0 {
				return 0, &RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "division by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return math.MinInt64, nil // wraparound, matching hardware
			}
			return a / b, nil
		case ir.OpMod:
			if b == 0 {
				return 0, &RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "modulo by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return 0, nil
			}
			return a % b, nil
		}
		return 0, &RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "internal: unknown binop"}
	case ir.RLoad:
		ptr := m.read(r.Src)
		idx := m.operand(r.A)
		if err := m.checkAddr(n, ptr, idx); err != nil {
			return 0, err
		}
		return m.heap[ptr+idx], nil
	case ir.RAlloc:
		size := m.operand(r.A)
		if size < 0 || size > 1<<24 {
			return 0, &RuntimeError{Node: n.ID, Line: int(n.Line),
				Msg: fmt.Sprintf("invalid allocation size %d", size)}
		}
		base := int64(len(m.heap))
		m.heap = append(m.heap, make([]int64, size)...)
		return base, nil
	case ir.RInput:
		if m.inPos >= len(m.opts.Input) {
			return -1, nil
		}
		v := m.opts.Input[m.inPos]
		m.inPos++
		return v, nil
	}
	return 0, &RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "internal: unknown rhs kind"}
}
