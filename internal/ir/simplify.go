package ir

// Simplify contracts synthetic no-op nodes out of the graph: joins, loop
// anchors, and the empty nodes left behind by eliminated conditionals.
// Every predecessor of a removable nop is redirected to the nop's unique
// successor. Branch arms are preserved (each arm must remain a dedicated
// node so the true/false successors stay unambiguous), as are assert
// nodes (they carry the facts the interpreter re-verifies) and all
// procedure-structure nodes. It returns the number of nodes removed.
//
// Simplification changes neither the output nor the operation count of
// any execution; it only shortens the synthetic hops between operations.
func Simplify(p *Program) int {
	removed := 0
	for {
		changed := false
		var candidates []NodeID
		p.LiveNodes(func(n *Node) {
			if n.Kind == NNop && n.Synthetic {
				candidates = append(candidates, n.ID)
			}
		})
		for _, id := range candidates {
			// Re-read the candidate: on a forked or shared program an
			// earlier contraction may have replaced it with a private copy.
			n := p.Node(id)
			if n == nil || !contractible(p, n) {
				continue
			}
			succ := n.Succs[0]
			for _, m := range append([]NodeID(nil), n.Preds...) {
				p.RedirectSucc(m, n.ID, succ)
			}
			p.DeleteNode(n.ID)
			removed++
			changed = true
		}
		if !changed {
			return removed
		}
	}
}

// contractible reports whether the nop can be removed by redirecting its
// predecessors to its unique successor.
func contractible(p *Program, n *Node) bool {
	if len(n.Succs) != 1 || len(n.Preds) == 0 || n.Succs[0] == n.ID {
		return false
	}
	for _, m := range n.Preds {
		mn := p.Node(m)
		if mn == nil || mn.Kind == NBranch {
			// The nop is a branch arm: it must stay a dedicated node.
			return false
		}
	}
	return true
}
