package interp_test

// This file keeps the map-based interpreter that Run replaced, unchanged
// but for its names, as the reference TestRunMatchesReference and
// FuzzRunMatchesReference compare Run against: every frame holds its locals
// in a map, and every exit scans its successors for the return point.

import (
	"fmt"
	"math"

	"icbe/internal/interp"
	"icbe/internal/ir"
)

type refFrame struct {
	proc     int
	callNode ir.NodeID // NCall node that created this frame; NoNode for main
	vars     map[ir.VarID]int64
}

type refMachine struct {
	prog    *ir.Program
	opts    interp.Options
	globals []int64
	heap    []int64
	frames  []*refFrame
	inPos   int
	res     *interp.Result
}

// referenceRun executes the program from main's entry until main's exit. The
// returned interp.Result is valid (partially filled) even when an error occurred.
func referenceRun(p *ir.Program, opts interp.Options) (*interp.Result, error) {
	m := &refMachine{
		prog:    p,
		opts:    opts,
		globals: make([]int64, len(p.Vars)),
		heap:    make([]int64, 1), // heap[0] unused; 0 is the nil pointer
		res:     &interp.Result{},
	}
	if opts.Profile {
		m.res.ExecCount = make(map[ir.NodeID]int64)
	}
	for _, v := range p.Vars {
		if v.IsGlobal() {
			m.globals[v.ID] = v.Init
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = interp.DefaultMaxSteps
	}

	main := p.Procs[p.MainProc]
	m.frames = []*refFrame{{proc: p.MainProc, callNode: ir.NoNode, vars: make(map[ir.VarID]int64)}}
	cur := p.Node(main.Entries[0])
	var retVal int64 // value carried from an exit to its call-site exit

	for {
		if cur == nil {
			return m.res, &interp.RuntimeError{Node: ir.NoNode, Line: 0, Msg: "control reached a deleted node"}
		}
		m.res.Steps++
		if m.res.Steps > maxSteps {
			return m.res, &interp.RuntimeError{Node: cur.ID, Line: int(cur.Line), Msg: "step limit exceeded", Err: interp.ErrStepLimit}
		}
		if m.res.ExecCount != nil {
			m.res.ExecCount[cur.ID]++
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
				return m.res, &interp.RuntimeError{Node: cur.ID, Line: int(cur.Line),
					Msg: fmt.Sprintf("internal: assertion %s %s violated (value %d)",
						m.prog.VarName(cur.AVar()), cur.APred(), m.read(cur.AVar()))}
			}
			cur = m.onlySucc(cur)

		case ir.NAssign:
			v, err := m.evalRHS(cur)
			if err != nil {
				return m.res, err
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
				cur = m.prog.Node(cur.TrueSucc())
			} else {
				cur = m.prog.Node(cur.FalseSucc())
			}

		case ir.NPrint:
			m.res.Output = append(m.res.Output, m.operand(cur.Val()))
			cur = m.onlySucc(cur)

		case ir.NStore:
			ptr := m.read(cur.Ptr())
			idx := m.operand(cur.Idx())
			if err := m.checkAddr(cur, ptr, idx); err != nil {
				return m.res, err
			}
			m.heap[ptr+idx] = m.operand(cur.Val())
			cur = m.onlySucc(cur)

		case ir.NCall:
			callee := m.prog.Procs[cur.Callee]
			nf := &refFrame{proc: int(cur.Callee), callNode: cur.ID, vars: make(map[ir.VarID]int64)}
			for i, formal := range callee.Formals {
				nf.vars[formal] = m.read(cur.Args[i])
			}
			m.frames = append(m.frames, nf)
			cur = m.prog.EntrySucc(cur)

		case ir.NExit:
			top := m.frames[len(m.frames)-1]
			retVal = m.read(m.prog.Procs[top.proc].RetVar)
			m.frames = m.frames[:len(m.frames)-1]
			if top.callNode == ir.NoNode {
				// main returned: program halts.
				return m.res, nil
			}
			var ret *ir.Node
			for _, s := range cur.Succs {
				ce := m.prog.Node(s)
				if ce == nil || ce.Kind != ir.NCallExit {
					continue
				}
				if call, _ := m.prog.CallSite(ce); call == top.callNode {
					ret = ce
					break
				}
			}
			if ret == nil {
				return m.res, &interp.RuntimeError{Node: cur.ID, Line: int(cur.Line),
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
			return m.res, &interp.RuntimeError{Node: cur.ID, Line: int(cur.Line),
				Msg: fmt.Sprintf("internal: unexecutable node kind %s", cur.Kind)}
		}
	}
}

func (m *refMachine) onlySucc(n *ir.Node) *ir.Node {
	if len(n.Succs) != 1 {
		return nil
	}
	return m.prog.Node(n.Succs[0])
}

func (m *refMachine) read(v ir.VarID) int64 {
	if m.prog.Vars[v].IsGlobal() {
		return m.globals[v]
	}
	return m.frames[len(m.frames)-1].vars[v]
}

func (m *refMachine) write(v ir.VarID, x int64) {
	if m.prog.Vars[v].IsGlobal() {
		m.globals[v] = x
		return
	}
	m.frames[len(m.frames)-1].vars[v] = x
}

func (m *refMachine) operand(o ir.Operand) int64 {
	if o.IsConst {
		return o.Const
	}
	return m.read(o.Var)
}

func (m *refMachine) checkAddr(n *ir.Node, ptr, idx int64) error {
	if ptr == 0 {
		return &interp.RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "nil pointer dereference"}
	}
	addr := ptr + idx
	if addr < 1 || addr >= int64(len(m.heap)) {
		return &interp.RuntimeError{Node: n.ID, Line: int(n.Line),
			Msg: fmt.Sprintf("heap access out of bounds (addr %d, heap size %d)", addr, len(m.heap))}
	}
	return nil
}

func (m *refMachine) evalRHS(n *ir.Node) (int64, error) {
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
				return 0, &interp.RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "division by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return math.MinInt64, nil // wraparound, matching hardware
			}
			return a / b, nil
		case ir.OpMod:
			if b == 0 {
				return 0, &interp.RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "modulo by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return 0, nil
			}
			return a % b, nil
		}
		return 0, &interp.RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "internal: unknown binop"}
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
			return 0, &interp.RuntimeError{Node: n.ID, Line: int(n.Line),
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
	return 0, &interp.RuntimeError{Node: n.ID, Line: int(n.Line), Msg: "internal: unknown rhs kind"}
}
