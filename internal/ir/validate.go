package ir

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Validate checks the structural invariants of the ICFG, including
// call-site normal form. It returns an error describing every violation
// found (joined), or nil.
//
// On a Local fork (a fork of a settled, hence valid, program) it checks
// only the region an attempt can have broken: the touched nodes, their
// neighbours in both the fork's edge lists and the lists they replaced,
// the nodes added to or dropped from a procedure's Entries or Exits, the
// variables created since the fork, and the per-procedure checks of the
// procedures owning any of those. Every check reads only a node's own
// fields and its neighbours', so a violation anywhere else would have been
// one in the settled program too; the region run reports exactly what the
// whole-program run would, in the same order.
func Validate(p *Program) error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	rg := validationRegion(p)
	// each visits the live nodes to check in ascending ID order.
	each := func(f func(i int, n *Node)) {
		if rg == nil {
			for i := range p.numNodes {
				if n := p.Node(NodeID(i)); n != nil {
					f(i, n)
				}
			}
			return
		}
		for _, id := range rg.nodes {
			if n := p.Node(id); n != nil {
				f(int(id), n)
			}
		}
	}

	// Arena consistency and edge symmetry; live counts the checked nodes
	// per procedure for the entry-less procedure check below.
	live := make([]int, len(p.Procs))
	each(func(i int, n *Node) {
		if int(n.ID) != i {
			bad("node at index %d has ID %d", i, n.ID)
		}
		if n.Proc < 0 || n.Proc >= len(p.Procs) {
			bad("node %d has invalid proc %d", n.ID, n.Proc)
			return
		}
		live[n.Proc]++
		for _, s := range n.Succs {
			sn := p.Node(s)
			if sn == nil {
				bad("node %d has dangling successor %d", n.ID, s)
				continue
			}
			if count(sn.Preds, n.ID) != count(n.Succs, s) {
				bad("edge %d->%d asymmetric (succs %d, preds %d)",
					n.ID, s, count(n.Succs, s), count(sn.Preds, n.ID))
			}
		}
		for _, m := range n.Preds {
			if p.Node(m) == nil {
				bad("node %d has dangling predecessor %d", n.ID, m)
			}
		}
	})

	// Variable arena consistency. Variables are never written after
	// creation, so a region run checks only those created since the fork.
	firstVar := 0
	if rg != nil {
		firstVar = rg.vars
	}
	for i := firstVar; i < len(p.Vars); i++ {
		v := p.Vars[i]
		if v == nil {
			continue
		}
		if int(v.ID) != i {
			bad("var at index %d has ID %d", i, v.ID)
		}
		if !v.IsGlobal() && (v.Proc < 0 || v.Proc >= len(p.Procs)) {
			bad("var %d (%q) has invalid proc %d", v.ID, v.Name, v.Proc)
		}
	}

	// checkVar verifies one node's variable reference: in range, live, and
	// owned by the referencing node's procedure (or global). Cross-procedure
	// references cannot arise from lowering or restructuring — splits copy
	// nodes within one procedure — so one here means a corrupted rewrite.
	checkVar := func(n *Node, v VarID, role string) {
		if v < 0 || int(v) >= len(p.Vars) || p.Vars[v] == nil {
			bad("node %d (%s) %s references invalid var %d", n.ID, n.Kind, role, v)
			return
		}
		if vr := p.Vars[v]; !vr.IsGlobal() && vr.Proc != n.Proc {
			bad("node %d (%s) %s references var %q of another proc", n.ID, n.Kind, role, vr.Name)
		}
	}
	checkOperand := func(n *Node, o Operand, role string) {
		if !o.IsConst {
			checkVar(n, o.Var, role)
		}
	}

	// Per-kind shape. Nodes with an invalid proc were reported above and
	// cannot be checked further without faulting.
	each(func(_ int, n *Node) {
		if n.Proc < 0 || n.Proc >= len(p.Procs) || p.Procs[n.Proc] == nil {
			return
		}
		switch n.Kind {
		case NAssign:
			if n.Dst != NoVar {
				checkVar(n, n.Dst, "dst")
			}
			switch n.RHS().Kind {
			case RCopy, RNeg, RByte:
				checkVar(n, n.RHS().Src, "src")
			case RBinop:
				checkOperand(n, n.RHS().A, "operand")
				checkOperand(n, n.RHS().B, "operand")
			case RLoad:
				checkVar(n, n.RHS().Src, "base")
				checkOperand(n, n.RHS().A, "index")
			case RAlloc:
				checkOperand(n, n.RHS().A, "size")
			}
		case NAssert:
			checkVar(n, n.AVar(), "assert var")
		case NStore:
			checkVar(n, n.Ptr(), "base")
			checkOperand(n, n.Idx(), "index")
			checkOperand(n, n.Val(), "value")
		case NPrint:
			checkOperand(n, n.Val(), "value")
		}
		switch n.Kind {
		case NBranch:
			if len(n.Succs) != 2 {
				bad("branch %d has %d successors, want 2", n.ID, len(n.Succs))
			}
			checkVar(n, n.CondVar(), "condition")
			checkOperand(n, n.CondRHS(), "condition rhs")
		case NExit:
			for _, s := range n.Succs {
				if sn := p.Node(s); sn != nil && sn.Kind != NCallExit {
					bad("exit %d has non-callexit successor %d (%s)", n.ID, s, sn.Kind)
				}
			}
			if !containsID(p.Procs[n.Proc].Exits, n.ID) {
				bad("exit %d not listed in proc %q exits", n.ID, p.Procs[n.Proc].Name)
			}
		case NEntry:
			for _, m := range n.Preds {
				mn := p.Node(m)
				if mn == nil {
					continue
				}
				if mn.Kind != NCall {
					bad("entry %d has non-call predecessor %d (%s)", n.ID, m, mn.Kind)
				} else if int(mn.Callee) != n.Proc {
					bad("entry %d of proc %q reached by call %d targeting callee %d",
						n.ID, p.Procs[n.Proc].Name, m, mn.Callee)
				}
			}
			if !containsID(p.Procs[n.Proc].Entries, n.ID) {
				bad("entry %d not listed in proc %q entries", n.ID, p.Procs[n.Proc].Name)
			}
		case NCall:
			callee := int(n.Callee)
			if callee < 0 || callee >= len(p.Procs) || p.Procs[callee] == nil {
				bad("call %d has invalid callee %d", n.ID, callee)
				return
			}
			if len(n.Args) != len(p.Procs[callee].Formals) {
				bad("call %d passes %d args to %q which has %d formals",
					n.ID, len(n.Args), p.Procs[callee].Name, len(p.Procs[callee].Formals))
			}
			for _, a := range n.Args {
				checkVar(n, a, "argument")
			}
			entries, callExits := 0, 0
			for _, s := range n.Succs {
				sn := p.Node(s)
				if sn == nil {
					continue
				}
				switch sn.Kind {
				case NEntry:
					entries++
					if sn.Proc != callee {
						bad("call %d to %q enters proc %q", n.ID, p.Procs[callee].Name, procName(p, sn.Proc))
					}
				case NCallExit:
					callExits++
					if sn.Proc != n.Proc {
						bad("call %d has callexit %d in a different proc", n.ID, s)
					}
				default:
					bad("call %d has invalid successor kind %s", n.ID, sn.Kind)
				}
			}
			// Normal form (a): exactly one procedure-entry successor.
			if entries != 1 {
				bad("call %d has %d entry successors, want 1 (normal form)", n.ID, entries)
			}
			if callExits < 1 {
				bad("call %d has no call-site-exit successor", n.ID)
			}
		case NCallExit:
			if n.Callee < 0 || int(n.Callee) >= len(p.Procs) || p.Procs[n.Callee] == nil {
				bad("callexit %d has invalid callee %d", n.ID, n.Callee)
				return
			}
			if n.Dst != NoVar {
				checkVar(n, n.Dst, "dst")
			}
			calls, exits := 0, 0
			for _, m := range n.Preds {
				mn := p.Node(m)
				if mn == nil {
					continue
				}
				switch mn.Kind {
				case NCall:
					calls++
					if mn.Callee != n.Callee {
						bad("callexit %d callee mismatch with call %d", n.ID, m)
					}
				case NExit:
					exits++
					if mn.Proc != int(n.Callee) {
						bad("callexit %d returns from proc %q, want %q",
							n.ID, procName(p, mn.Proc), p.Procs[n.Callee].Name)
					}
				default:
					bad("callexit %d has invalid predecessor kind %s", n.ID, mn.Kind)
				}
			}
			// Normal form (b): one call-site predecessor, one exit
			// predecessor.
			if calls != 1 || exits != 1 {
				bad("callexit %d has %d call preds and %d exit preds, want 1/1 (normal form)",
					n.ID, calls, exits)
			}
		}
		// Every node except exits must flow somewhere.
		if n.Kind != NExit && len(n.Succs) == 0 {
			bad("node %d (%s) has no successors", n.ID, n.Kind)
		}
		if n.Kind != NBranch && n.Kind != NCall && n.Kind != NExit && len(n.Succs) > 1 {
			bad("node %d (%s) has %d successors, want at most 1", n.ID, n.Kind, len(n.Succs))
		}
	})

	// Procedure entry/exit lists refer to live nodes of the right kind. A
	// procedure whose every call site was optimized away may be fully
	// pruned (no entries and no nodes) — that is valid dead-code removal.
	// In a region run a procedure that lost its entries but kept nodes
	// always keeps a live region node: the first live node after the
	// deleted ones on its path from an old entry was touched by the
	// deletion.
	for i, pr := range p.Procs {
		if pr == nil || (rg != nil && !rg.procs[i]) {
			continue
		}
		if len(pr.Entries) == 0 && pr.Index >= 0 && pr.Index < len(live) && live[pr.Index] > 0 {
			bad("proc %q has nodes but no entries", pr.Name)
		}
		seenEntry := make(map[NodeID]bool)
		for _, e := range pr.Entries {
			n := p.Node(e)
			if n == nil || n.Kind != NEntry || n.Proc != pr.Index {
				bad("proc %q entry %d invalid", pr.Name, e)
			}
			if seenEntry[e] {
				bad("proc %q lists entry %d twice", pr.Name, e)
			}
			seenEntry[e] = true
		}
		seenExit := make(map[NodeID]bool)
		for _, e := range pr.Exits {
			n := p.Node(e)
			if n == nil || n.Kind != NExit || n.Proc != pr.Index {
				bad("proc %q exit %d invalid", pr.Name, e)
			}
			if seenExit[e] {
				bad("proc %q lists exit %d twice", pr.Name, e)
			}
			seenExit[e] = true
		}
		// The procedure's declared interface variables: formals are
		// parameters of this procedure, the return slot is its VarRet.
		for _, f := range pr.Formals {
			v := varOf(p, f)
			if v == nil {
				bad("proc %q formal %d invalid", pr.Name, f)
			} else if v.Kind != VarParam || v.Proc != pr.Index {
				bad("proc %q formal %q is %s of proc %d, want its own parameter",
					pr.Name, v.Name, v.Kind, v.Proc)
			}
		}
		if v := varOf(p, pr.RetVar); v == nil {
			bad("proc %q return var %d invalid", pr.Name, pr.RetVar)
		} else if v.Kind != VarRet || v.Proc != pr.Index {
			bad("proc %q return var %q is %s of proc %d, want its own return slot",
				pr.Name, v.Name, v.Kind, v.Proc)
		}
	}

	if p.MainProc < 0 || p.MainProc >= len(p.Procs) || p.Procs[p.MainProc] == nil {
		bad("main proc index %d invalid", p.MainProc)
	}

	return errors.Join(errs...)
}

// validRegion is what a region Validate checks: nodes in ascending ID
// order, the procedures whose per-procedure checks run, and the first
// variable created since the fork.
type validRegion struct {
	nodes []NodeID
	procs []bool
	vars  int
}

// validationRegion returns the region Validate checks on a Local fork, or
// nil to check the whole program.
func validationRegion(p *Program) *validRegion {
	if !p.Local() {
		return nil
	}
	rg := &validRegion{procs: make([]bool, len(p.Procs)), vars: p.base.vars}
	buf := regionBitsPool.Get().(*[]uint64)
	in := *buf
	if len(in)*64 < p.numNodes {
		in = make([]uint64, (p.numNodes+63)/64)
	}
	add := func(id NodeID) {
		if id < 0 || int(id) >= p.numNodes {
			return
		}
		w, b := id>>6, uint64(1)<<(uint(id)&63)
		if in[w]&b == 0 {
			in[w] |= b
			rg.nodes = append(rg.nodes, id)
		}
	}
	addNode := func(n *Node) {
		if n == nil {
			return
		}
		if n.Proc >= 0 && n.Proc < len(rg.procs) {
			rg.procs[n.Proc] = true
		}
		for _, s := range n.Succs {
			add(s)
		}
		for _, m := range n.Preds {
			add(m)
		}
	}
	for i, id := range p.touched {
		add(id)
		addNode(p.Node(id))
		addNode(p.prior[i])
	}
	for i, pr := range p.Procs {
		if pr == nil || i >= len(p.base.procs) || pr == p.base.procs[i] {
			continue
		}
		var entries, exits []NodeID
		if bp := p.base.procs[i]; bp != nil {
			entries, exits = bp.Entries, bp.Exits
		}
		for _, l := range [2][2][]NodeID{{entries, pr.Entries}, {exits, pr.Exits}} {
			if slices.Equal(l[0], l[1]) {
				continue
			}
			rg.procs[i] = true
			for _, id := range l[0] {
				add(id)
			}
			for _, id := range l[1] {
				add(id)
			}
		}
	}
	slices.Sort(rg.nodes)
	// The set bits are exactly rg.nodes: clear them and pool the bitset.
	for _, id := range rg.nodes {
		in[id>>6] &^= 1 << (uint(id) & 63)
	}
	*buf = in
	regionBitsPool.Put(buf)
	return rg
}

// regionBitsPool holds validationRegion's membership bitsets, all clear,
// so a region Validate does not allocate a bit per node of the program.
var regionBitsPool = sync.Pool{New: func() any { return new([]uint64) }}

func procName(p *Program, i int) string {
	if i >= 0 && i < len(p.Procs) && p.Procs[i] != nil {
		return p.Procs[i].Name
	}
	return fmt.Sprintf("?%d", i)
}

func varOf(p *Program, v VarID) *Var {
	if v < 0 || int(v) >= len(p.Vars) {
		return nil
	}
	return p.Vars[v]
}

func count(ids []NodeID, x NodeID) int {
	c := 0
	for _, id := range ids {
		if id == x {
			c++
		}
	}
	return c
}

func containsID(ids []NodeID, x NodeID) bool {
	for _, id := range ids {
		if id == x {
			return true
		}
	}
	return false
}
