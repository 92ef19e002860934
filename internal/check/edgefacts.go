package check

import (
	"slices"

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

// EdgeReplay is the state buffer EdgeFacts replays transfer functions in.
// One buffer serves any number of calls, from one goroutine at a time; the
// zero value is ready to use.
type EdgeReplay struct{ buf []cell }

// EdgeFacts replays every predecessor's transfer function on its settled
// entry state and folds the branch condition in each resulting edge state —
// the per-edge refinement of BranchOutcome that the fold pass consumes. The
// replay runs the propagation engine's own transfer functions (transfer and
// arm, with the settled call-site-exit return value), so an edge fact is as
// sound as the run it came from. It appends one fact per in-edge of branch
// b to dst and returns the extended slice; saturated runs, non-branches and
// deleted nodes append nothing. rb is the replay buffer, reused across
// calls; nil replays in a private one.
func (s *SCCP) EdgeFacts(dst []EdgeFact, b ir.NodeID, rb *EdgeReplay) []EdgeFact {
	s.live()
	bn := s.p.Node(b)
	if s.saturated || bn == nil || bn.Kind != ir.NBranch {
		return dst
	}
	if rb == nil {
		rb = new(EdgeReplay)
	}
	bsp := s.spaceOf(bn.Proc)
	dst = slices.Grow(dst, len(bn.Preds))
	for i, pid := range bn.Preds {
		ef := EdgeFact{From: pid, Slot: -1, Outcome: pred.Unknown}
		if pn := s.p.Node(pid); pn != nil {
			// Parallel edges from one predecessor map to its successive
			// slots.
			ef.Slot = nthSuccSlot(pn, b, countOf(bn.Preds[:i], pid))
			if st := s.edgeState(pn, ef.Slot, &rb.buf); st != nil {
				if s.spaceOf(pn.Proc) != bsp {
					st = s.convert(st, bsp)
				}
				ef.Live = true
				ef.Outcome = condOutcome(bn, st, bsp)
			}
		}
		dst = append(dst, ef)
	}
	return dst
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
