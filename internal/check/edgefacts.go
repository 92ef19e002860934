package check

import (
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// EdgeFact is the oracle's verdict about one in-edge of a branch: whether
// the edge is executable and what the branch condition folds to in the
// state arriving along exactly that edge. The edge is identified by the
// predecessor and the slot of the branch in the predecessor's successor
// list (parallel edges from a branch's two arms get one fact each).
type EdgeFact struct {
	From    ir.NodeID
	Slot    int
	Live    bool
	Outcome pred.Outcome
}

// EdgeFacts replays every predecessor's transfer function on its settled
// entry state and folds the branch condition in each resulting edge state —
// the per-edge refinement of BranchOutcome that the fold pass consumes. The
// replay runs the propagation engine's own transfer functions (transfer and
// arm, with the settled call-site-exit return value), so an edge fact is as
// sound as the run it came from. Nil is returned for saturated runs,
// non-branches, and deleted nodes.
func (s *SCCP) EdgeFacts(b ir.NodeID) []EdgeFact {
	s.live()
	bn := s.p.Node(b)
	if s.saturated || bn == nil || bn.Kind != ir.NBranch {
		return nil
	}
	bsp := s.spaceOf(bn.Proc)
	out := make([]EdgeFact, 0, len(bn.Preds))
	var buf []cell
	for i, pid := range bn.Preds {
		ef := EdgeFact{From: pid, Slot: -1, Outcome: pred.Unknown}
		if pn := s.p.Node(pid); pn != nil {
			// Parallel edges from one predecessor map to its successive
			// slots.
			ef.Slot = nthSuccSlot(pn, b, countOf(bn.Preds[:i], pid))
			if st := s.edgeState(pn, ef.Slot, &buf); st != nil {
				if s.spaceOf(pn.Proc) != bsp {
					st = s.convert(st, bsp)
				}
				ef.Live = true
				ef.Outcome = condOutcome(bn, st, bsp)
			}
		}
		out = append(out, ef)
	}
	return out
}

// edgeState is the state the predecessor sends along its out-edge slot,
// replayed from its settled entry state; nil when the edge carries none
// (the predecessor never ran, the arm is infeasible, or the slot is
// dangling).
func (s *SCCP) edgeState(pn *ir.Node, slot int, buf *[]cell) []cell {
	in := s.stateOf(pn.ID)
	if in == nil || slot < 0 {
		return nil
	}
	if pn.Kind == ir.NBranch {
		return s.arm(pn, in, condOutcome(pn, in, s.spaceOf(pn.Proc)), slot, buf)
	}
	return s.transfer(pn, in, s.ceRet[pn.ID], buf)
}

func countOf(ids []ir.NodeID, x ir.NodeID) int {
	k := 0
	for _, id := range ids {
		if id == x {
			k++
		}
	}
	return k
}

// nthSuccSlot returns the index of the k-th occurrence of to in the node's
// successor list, or -1 (a dangling Preds entry, possible only on
// fuzz-mutated graphs).
func nthSuccSlot(n *ir.Node, to ir.NodeID, k int) int {
	for i, sid := range n.Succs {
		if sid == to {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}
