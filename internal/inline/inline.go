// Package inline implements procedure integration on the ICFG. The paper
// (§5, "Procedure inlining") discusses inlining as the conventional
// alternative to interprocedural restructuring: most interprocedurally
// visible branch-elimination opportunities can be exploited by inlining
// the involved procedures and then applying a purely intraprocedural
// eliminator — at the cost of duplicating the whole callee per call site
// rather than only the correlated paths. This package provides the
// inliner, so the tradeoff can be measured (see BenchmarkInliningVsICBE).
package inline

import (
	"fmt"

	"icbe/internal/ir"
)

// Call inlines the callee invoked at the given call-site node into the
// caller: the callee's body is cloned, formals become assignments from the
// argument variables, and each procedure exit becomes an assignment of the
// return variable to the call's destination followed by a jump to the
// corresponding call-site-exit successor. The graph must be in call-site
// normal form; it remains so afterwards.
func Call(p *ir.Program, callID ir.NodeID) error {
	call := p.Node(callID)
	if call == nil || call.Kind != ir.NCall {
		return fmt.Errorf("inline: node %d is not a call site", callID)
	}
	callee := p.Procs[call.Callee]
	caller := call.Proc
	entry := p.EntrySucc(call)

	// Nodes of the callee reachable from the invoked entry (other entries'
	// exclusive regions are not part of this call), in discovery order: the
	// clones below are numbered and wired in that order, so the inlined
	// program is the same on every run.
	reach := make(map[ir.NodeID]bool)
	order := []ir.NodeID{entry.ID}
	stack := []ir.NodeID{entry.ID}
	reach[entry.ID] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Node(id).Succs {
			sn := p.Node(s)
			if sn == nil || sn.Proc != callee.Index || reach[s] {
				continue
			}
			reach[s] = true
			order = append(order, s)
			stack = append(stack, s)
		}
	}

	// Fresh caller-local copies of every callee variable, so recursive or
	// repeated inlining cannot alias frames.
	varMap := make(map[ir.VarID]ir.VarID)
	mapVar := func(v ir.VarID) ir.VarID {
		if v == ir.NoVar {
			return v
		}
		vv := p.Vars[v]
		if vv.Proc != callee.Index {
			return v // globals and caller variables pass through
		}
		if nv, ok := varMap[v]; ok {
			return nv
		}
		nv := p.NewVar(fmt.Sprintf("%s.inl%d.%s", p.Procs[caller].Name, int(callID), vv.Name), ir.VarLocal, caller)
		varMap[v] = nv
		return nv
	}
	mapOperand := func(o ir.Operand) ir.Operand {
		if o.IsConst {
			return o
		}
		return ir.VarOp(mapVar(o.Var))
	}

	// Clone the body. Entry and exit nodes become nops; the wiring below
	// redirects through them.
	nodeMap := make(map[ir.NodeID]ir.NodeID)
	for _, id := range order {
		n := p.Node(id)
		kind := n.Kind
		if kind == ir.NEntry || kind == ir.NExit {
			kind = ir.NNop
		}
		c := p.NewNode(kind, caller)
		c.Line = n.Line
		c.Synthetic = n.Synthetic || kind == ir.NNop
		switch n.Kind {
		case ir.NAssign:
			c.Dst = mapVar(n.Dst)
			c.RHS = n.RHS
			c.RHS.Src = mapVar(n.RHS.Src)
			c.RHS.A = mapOperand(n.RHS.A)
			c.RHS.B = mapOperand(n.RHS.B)
		case ir.NBranch:
			c.CondVar = mapVar(n.CondVar)
			c.CondOp = n.CondOp
			c.CondRHS = mapOperand(n.CondRHS)
		case ir.NAssert:
			c.AVar = mapVar(n.AVar)
			c.APred = n.APred
		case ir.NStore:
			c.Ptr = mapVar(n.Ptr)
			c.Idx = mapOperand(n.Idx)
			c.Val = mapOperand(n.Val)
		case ir.NPrint:
			c.Val = mapOperand(n.Val)
		case ir.NCall:
			c.Callee = n.Callee
			c.Args = make([]ir.VarID, len(n.Args))
			for i, a := range n.Args {
				c.Args[i] = mapVar(a)
			}
		case ir.NCallExit:
			c.Callee = n.Callee
			c.Dst = mapVar(n.Dst)
			c.Synthetic = n.Synthetic
		}
		nodeMap[id] = c.ID
	}

	// Clone intraprocedural edges; wire nested calls interprocedurally.
	// Exit → call-site-exit and call → entry edges are interprocedural
	// even when both ends lie in the callee (recursion): they are never
	// cloned — the return wiring and the nested-call wiring below handle
	// them.
	for _, id := range order {
		n := p.Node(id)
		if n.Kind != ir.NExit {
			for _, s := range n.Succs {
				if !reach[s] {
					continue
				}
				if n.Kind == ir.NCall && p.Node(s).Kind == ir.NEntry {
					continue
				}
				p.AddEdge(nodeMap[id], nodeMap[s])
			}
		}
		if n.Kind == ir.NCall {
			nested := p.EntrySucc(n)
			p.AddEdge(nodeMap[id], nested.ID)
			for _, ce := range p.CallExitSuccs(n) {
				if !reach[ce.ID] {
					continue
				}
				exitPred := p.ExitPred(ce)
				if exitPred != nil {
					p.AddEdge(exitPred.ID, nodeMap[ce.ID])
				}
			}
		}
	}

	// Parameter passing: formal_i := arg_i before the body.
	head := nodeMap[entry.ID]
	var paramChainEnd ir.NodeID = head
	// Insert assignments after the entry nop, before its successors.
	entryClone := p.Node(head)
	succs := append([]ir.NodeID(nil), entryClone.Succs...)
	for _, s := range succs {
		p.RemoveEdge(head, s)
	}
	cur := head
	for i, formal := range callee.Formals {
		asg := p.NewNode(ir.NAssign, caller)
		asg.Dst = mapVar(formal)
		asg.RHS = ir.RHS{Kind: ir.RCopy, Src: call.Args[i]}
		asg.Line = call.Line
		p.AddEdge(cur, asg.ID)
		cur = asg.ID
	}
	for _, s := range succs {
		p.AddEdge(cur, s)
	}
	paramChainEnd = cur
	_ = paramChainEnd

	// Return wiring: each cloned exit assigns the mapped return variable
	// into the call-site exit's destination and jumps to that exit's
	// call-site-exit successor in the caller.
	for _, ce := range p.CallExitSuccs(call) {
		exitPred := p.ExitPred(ce)
		if exitPred == nil {
			return fmt.Errorf("inline: call %d has call-site exit %d without exit predecessor", callID, ce.ID)
		}
		if !reach[exitPred.ID] {
			// The paired exit is unreachable from this entry; the
			// call-site exit can never activate. Drop it below with the
			// call node.
			continue
		}
		exitClone := nodeMap[exitPred.ID]
		after := ce.Succs[0]
		if ce.Dst != ir.NoVar {
			asg := p.NewNode(ir.NAssign, caller)
			asg.Dst = ce.Dst
			asg.RHS = ir.RHS{Kind: ir.RCopy, Src: mapVar(callee.RetVar)}
			asg.Line = ce.Line
			p.AddEdge(exitClone, asg.ID)
			p.AddEdge(asg.ID, after)
		} else {
			p.AddEdge(exitClone, after)
		}
	}

	// Redirect the callers of the call node into the inlined head and
	// remove the call site.
	for _, m := range append([]ir.NodeID(nil), call.Preds...) {
		p.RedirectSucc(m, callID, head)
	}
	ces := p.CallExitSuccs(call)
	p.DeleteNode(callID)
	for _, ce := range ces {
		p.DeleteNode(ce.ID)
	}
	return nil
}

// Exhaustive inlines every non-recursive call in the program repeatedly
// until none remain or the budget of inline operations is exhausted. It
// reproduces the paper's "pre-pass inlining" strawman.
func Exhaustive(p *ir.Program, budget int) int {
	done := 0
	for done < budget {
		var target ir.NodeID = ir.NoNode
		p.LiveNodes(func(n *ir.Node) {
			if target != ir.NoNode || n.Kind != ir.NCall {
				return
			}
			if n.Callee == n.Proc {
				return // direct recursion cannot be fully inlined
			}
			if callsProc(p, n.Callee, n.Proc) {
				return // mutual recursion
			}
			target = n.ID
		})
		if target == ir.NoNode {
			return done
		}
		if err := Call(p, target); err != nil {
			return done
		}
		done++
	}
	return done
}

// callsProc reports whether procedure from can (transitively) call
// procedure to.
func callsProc(p *ir.Program, from, to int) bool {
	seen := make(map[int]bool)
	var walk func(int) bool
	walk = func(pr int) bool {
		if pr == to {
			return true
		}
		if seen[pr] {
			return false
		}
		seen[pr] = true
		found := false
		p.LiveNodes(func(n *ir.Node) {
			if !found && n.Kind == ir.NCall && n.Proc == pr {
				if walk(n.Callee) {
					found = true
				}
			}
		})
		return found
	}
	return walk(from)
}
