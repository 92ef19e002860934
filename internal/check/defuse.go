package check

import (
	"slices"

	"icbe/internal/ir"
)

// forEachRead calls f for every variable the node's transfer function
// reads. Call-site exits read the callee's return variable, which is a
// cross-procedure read handled separately by the callers that need it; the
// implicit return-variable read at procedure exits is likewise left out.
func forEachRead(n *ir.Node, f func(ir.VarID)) {
	operand := func(o ir.Operand) {
		if !o.IsConst {
			f(o.Var)
		}
	}
	switch n.Kind {
	case ir.NAssign:
		switch n.RHS().Kind {
		case ir.RCopy, ir.RNeg, ir.RByte:
			f(n.RHS().Src)
		case ir.RBinop:
			operand(n.RHS().A)
			operand(n.RHS().B)
		case ir.RLoad:
			f(n.RHS().Src)
			operand(n.RHS().A)
		case ir.RAlloc:
			operand(n.RHS().A)
		}
	case ir.NBranch:
		f(n.CondVar())
		operand(n.CondRHS())
	case ir.NAssert:
		f(n.AVar())
	case ir.NCall:
		for _, a := range n.Args {
			f(a)
		}
	case ir.NStore:
		f(n.Ptr())
		operand(n.Idx())
		operand(n.Val())
	case ir.NPrint:
		operand(n.Val())
	}
}

// assignFlow holds the per-node maybe-assigned variable sets of one
// procedure: a forward maybe-assignment analysis (union over
// predecessors). A read of a variable that is not even maybe-assigned is
// the use-before-def lint finding.
//
// Dataflow edges are the intraprocedural ones: successor edges within the
// procedure, excluding return edges (procedure exit → call-site exit) and
// call-to-entry edges of self-recursive calls — a call site's local
// continuation is its call-site exit, whose only intraprocedural dataflow
// predecessor is the call.
type assignFlow struct {
	p    *ir.Program
	proc int
	// vars are the procedure's own variables in VarID order, a variable's
	// bit position being its index; nodes are its nodes in arena order.
	vars  []ir.VarID
	nodes []*ir.Node
	ix    *flowIndex
	words int
	mayIn []uint64 // maybe-assigned at node entry, words per node
}

// flowIndex holds what one pass run shares across procedures: the live
// nodes and the local variables bucketed by owning procedure, each in arena
// order, and the maps from IDs to positions in one procedure's lists.
// analyzeAssignments rewrites the position entries of its own nodes and
// variables, and a lookup confirms the position against the list, so an
// entry another procedure left never matches. The index also holds the one
// assignFlow analyzeAssignments fills and its bitsets, so a procedure's
// flow is valid until the next procedure's is computed.
type flowIndex struct {
	nodes [][]*ir.Node // by procedure
	vars  [][]ir.VarID // by procedure
	node  []int32      // by NodeID
	vr    []int32      // by VarID
	af    assignFlow
	// defRows and mayOut are solve's bitsets.
	defRows, mayOut []uint64
}

// newFlowIndex readies the scratch's flow index for p, whose live nodes
// byProc buckets.
func (ps *passScratch) newFlowIndex(p *ir.Program, byProc [][]*ir.Node) *flowIndex {
	ix := &ps.flow
	ix.nodes = byProc
	ix.vars = slices.Grow(ix.vars[:0], len(p.Procs))[:len(p.Procs)]
	for i := range ix.vars {
		ix.vars[i] = ix.vars[i][:0]
	}
	ix.node, ix.vr = resize(ix.node, p.NumNodes()), resize(ix.vr, len(p.Vars))
	for _, v := range p.Vars {
		if v != nil && !v.IsGlobal() && v.Proc >= 0 && v.Proc < len(ix.vars) {
			ix.vars[v.Proc] = append(ix.vars[v.Proc], v.ID)
		}
	}
	return ix
}

// analyzeAssignments runs the assignment dataflow for one procedure. A
// procedure index outside the procedure table (only on graphs ir.Validate
// rejects) has no nodes or variables.
func analyzeAssignments(p *ir.Program, proc int, ix *flowIndex) *assignFlow {
	af := &ix.af
	*af = assignFlow{p: p, proc: proc, ix: ix, mayIn: af.mayIn[:0]}
	if proc >= 0 && proc < len(ix.nodes) {
		af.nodes, af.vars = ix.nodes[proc], ix.vars[proc]
	}
	for i, v := range af.vars {
		if v >= 0 && int(v) < len(ix.vr) {
			ix.vr[v] = int32(i)
		}
	}
	for i, n := range af.nodes {
		if n.ID >= 0 && int(n.ID) < len(ix.node) {
			ix.node[n.ID] = int32(i)
		}
	}
	af.words = (len(af.vars) + 63) / 64
	if af.words == 0 || len(af.nodes) == 0 {
		return af
	}
	af.mayIn = resize(af.mayIn, af.words*len(af.nodes))
	af.solve()
	return af
}

// nodePos returns the position of the node with the given ID, the last one
// when IDs repeat. Only a graph ir.Validate rejects has an ID outside the
// arena; those are searched for.
func (af *assignFlow) nodePos(id ir.NodeID) (int, bool) {
	if id >= 0 && int(id) < len(af.ix.node) {
		i := int(af.ix.node[id])
		return i, i < len(af.nodes) && af.nodes[i].ID == id
	}
	for i := len(af.nodes) - 1; i >= 0; i-- {
		if af.nodes[i].ID == id {
			return i, true
		}
	}
	return 0, false
}

// varPos returns the bit position of the procedure's variable v, with the
// same rules as nodePos.
func (af *assignFlow) varPos(v ir.VarID) (int, bool) {
	if v >= 0 && int(v) < len(af.ix.vr) {
		i := int(af.ix.vr[v])
		return i, i < len(af.vars) && af.vars[i] == v
	}
	for i := len(af.vars) - 1; i >= 0; i-- {
		if af.vars[i] == v {
			return i, true
		}
	}
	return 0, false
}

// defs collects the node's assigned bit positions: assignment and call-site
// exit destinations, plus the formals at procedure entries.
func (af *assignFlow) defs(n *ir.Node, emit func(pos int)) {
	add := func(v ir.VarID) {
		if pos, ok := af.varPos(v); ok {
			emit(pos)
		}
	}
	switch n.Kind {
	case ir.NAssign, ir.NCallExit:
		if n.Dst != ir.NoVar {
			add(n.Dst)
		}
	case ir.NEntry:
		if n.Proc >= 0 && n.Proc < len(af.p.Procs) && af.p.Procs[n.Proc] != nil {
			for _, formal := range af.p.Procs[n.Proc].Formals {
				add(formal)
			}
		}
	}
}

// flowPreds calls emit for every intraprocedural dataflow predecessor.
func (af *assignFlow) flowPreds(n *ir.Node, emit func(pos int)) {
	if n.Kind == ir.NEntry {
		return // entry predecessors are call sites of other frames
	}
	for _, m := range n.Preds {
		mn := af.p.Node(m)
		if mn == nil || mn.Proc != af.proc || mn.Kind == ir.NExit {
			continue // return edges are not local dataflow
		}
		if pos, ok := af.nodePos(m); ok {
			emit(pos)
		}
	}
}

// solve iterates the analysis to its fixpoint with round-robin sweeps (the
// sets only grow, so iteration terminates).
func (af *assignFlow) solve() {
	w := af.words
	// Per-node def bitsets, computed once: out(n) = in(n) | defRow(n).
	af.ix.defRows = resize(af.ix.defRows, w*len(af.nodes))
	defRows := af.ix.defRows
	for i, n := range af.nodes {
		row := defRows[i*w : (i+1)*w]
		af.defs(n, func(pos int) {
			row[pos/64] |= 1 << (pos % 64)
		})
	}
	af.ix.mayOut = resize(af.ix.mayOut, w)
	mayOut := af.ix.mayOut
	for changed := true; changed; {
		changed = false
		for i, n := range af.nodes {
			if n.Kind == ir.NEntry {
				continue // boundary in-states stay empty
			}
			clear(mayOut)
			af.flowPreds(n, func(pp int) {
				mr := af.mayIn[pp*w : (pp+1)*w]
				gen := defRows[pp*w : (pp+1)*w]
				for k := 0; k < w; k++ {
					mayOut[k] |= mr[k] | gen[k]
				}
			})
			mrow := af.mayIn[i*w : (i+1)*w]
			for k := 0; k < w; k++ {
				if nv := mrow[k] | mayOut[k]; nv != mrow[k] {
					mrow[k] = nv
					changed = true
				}
			}
		}
	}
}

// maybeAssignedIn reports whether any intraprocedural path reaching the
// node assigns the variable. The second result is false when the variable
// does not belong to this procedure.
func (af *assignFlow) maybeAssignedIn(n ir.NodeID, v ir.VarID) (bool, bool) {
	i, ok := af.nodePos(n)
	if !ok {
		return false, false
	}
	pos, ok := af.varPos(v)
	if !ok || len(af.mayIn) == 0 {
		return false, false
	}
	return af.mayIn[i*af.words+pos/64]&(1<<(pos%64)) != 0, true
}
