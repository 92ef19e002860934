package check

import (
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Provenance names the fact that decided a branch outcome on one in-edge,
// for the fold pass's residual attribution. The classification is a
// best-effort explanation (one edge may owe its decision to several fact
// kinds at once); the precedence below picks the most specific.
type Provenance uint8

// Provenance kinds, in increasing specificity.
const (
	// ProvNone: the edge does not decide the branch.
	ProvNone Provenance = iota
	// ProvValue: the plain constant lattice value of the operands decides it.
	ProvValue
	// ProvInterval: an interval bound (byte() result, clamped range, const
	// shift) decides it — the flow-insensitive constant lattice could not.
	ProvInterval
	// ProvCopy: the tested variable's cell was populated through its
	// copy-propagation group — a copy fact strengthened the constancy fact.
	ProvCopy
	// ProvAssert: only the predecessor's own branch-edge or assert
	// refinement decides it; the unrefined state could not.
	ProvAssert
)

func (p Provenance) String() string {
	switch p {
	case ProvNone:
		return "none"
	case ProvValue:
		return "value"
	case ProvInterval:
		return "interval"
	case ProvCopy:
		return "copy"
	case ProvAssert:
		return "assert"
	}
	return "?"
}

// EdgeFact is the oracle's verdict about one in-edge of a branch: whether
// the edge is executable, what the branch condition folds to in the state
// arriving along exactly that edge, and which fact kind decided it. The
// edge is identified by the predecessor and the slot of the branch in the
// predecessor's successor list (parallel edges from a branch's two arms get
// one fact each).
type EdgeFact struct {
	From    ir.NodeID
	Slot    int
	Live    bool
	Outcome pred.Outcome
	Prov    Provenance
}

// EdgeFacts replays every predecessor's transfer function on its settled
// entry state and folds the branch condition in each resulting edge state —
// the per-edge refinement of BranchOutcome that the fold pass's residual
// attribution consumes. The replay mirrors the propagation engine's
// transfer functions exactly (same refinement, same call-site-exit return
// merge), so an edge fact is as sound as the run it came from. Nil is
// returned for saturated runs, non-branches, and deleted nodes.
func (s *SCCP) EdgeFacts(b ir.NodeID) []EdgeFact {
	bn := s.prog.Node(b)
	if s.saturated || bn == nil || bn.Kind != ir.NBranch {
		return nil
	}
	bsp := s.spaceOf(bn.Proc)
	out := make([]EdgeFact, 0, len(bn.Preds))
	// occ counts how many edges from each predecessor were already
	// attributed, so parallel edges map to distinct successor slots.
	occ := make(map[ir.NodeID]int, len(bn.Preds))
	for _, pid := range bn.Preds {
		k := occ[pid]
		occ[pid] = k + 1
		ef := EdgeFact{From: pid, Slot: -1, Outcome: pred.Unknown}
		pn := s.prog.Node(pid)
		if pn != nil {
			ef.Slot = nthSuccSlot(pn, b, k)
		}
		if pn != nil && ef.Slot >= 0 && s.Reachable(pid) {
			st, base := s.edgeState(pn, ef.Slot)
			if st != nil {
				if psp := s.spaceOf(pn.Proc); psp != bsp {
					st = s.convertState(st, bsp)
					if base != nil {
						base = s.convertState(base, bsp)
					}
				}
				ef.Live = true
				ef.Outcome = condOutcome(bn, st, bsp)
				refinedOnly := false
				if ef.Outcome != pred.Unknown && base != nil {
					bo := condOutcome(bn, base, bsp)
					refinedOnly = bo != ef.Outcome
				}
				ef.Prov = s.provenance(bn, bsp, st, ef.Outcome, refinedOnly)
			}
		}
		out = append(out, ef)
	}
	return out
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

// edgeState replays the predecessor's transfer function for the given
// successor slot on its settled entry state. It returns nil when the edge
// carries no executable state (the predecessor never ran, or the arm is
// statically infeasible). base is the same edge state WITHOUT the
// branch-edge/assert refinement applied (nil when no refinement happened):
// comparing outcomes across the two tells ProvAssert apart from the rest.
func (s *SCCP) edgeState(pn *ir.Node, slot int) (st, base []cell) {
	in := s.stateOf(pn.ID)
	if in == nil {
		return nil, nil
	}
	sp := s.spaceOf(pn.Proc)
	switch pn.Kind {
	case ir.NAssign:
		out := cloneCells(in)
		v, root := evalRHS(in, sp, pn)
		assign(out, sp, pn.Dst, v, root)
		return out, nil
	case ir.NBranch:
		return s.branchEdgeState(pn, sp, in, slot)
	case ir.NAssert:
		out := cloneCells(in)
		if validOp(pn.APred.Op) {
			if !refineGroup(out, sp, pn.AVar, pn.APred) {
				return nil, nil
			}
			return out, cloneCells(in)
		}
		return out, nil
	case ir.NCallExit:
		out := cloneCells(in)
		if pn.Dst != ir.NoVar {
			ret := bottom()
			if int(pn.ID) < len(s.ceRet) {
				ret = s.ceRet[pn.ID]
			}
			assign(out, sp, pn.Dst, ret, ir.NoVar)
		}
		return out, nil
	}
	// NEntry, NCall, NExit, NStore, NPrint, NNop: state passes through.
	// (A branch can never be the entry or call-site-exit special successor
	// of a call or exit, so the plain pass-through is the right transfer.)
	return cloneCells(in), nil
}

// branchEdgeState is edgeState for a branch predecessor: arm feasibility
// plus the branch-edge assertion on the tested variable's copy group,
// mirroring processBranch.
func (s *SCCP) branchEdgeState(pn *ir.Node, sp *space, in []cell, slot int) (st, base []cell) {
	if slot >= 2 {
		// Malformed extra out-edges (fuzz graphs): plain unrefined flow.
		return cloneCells(in), nil
	}
	o := condOutcome(pn, in, sp)
	if (slot == 0 && o == pred.False) || (slot == 1 && o == pred.True) {
		return nil, nil
	}
	out := cloneCells(in)
	if !pn.CondRHS.IsConst || !validOp(pn.CondOp) {
		return out, nil
	}
	p := pred.Pred{Op: pn.CondOp, C: pn.CondRHS.Const}
	if slot == 1 {
		p = p.Negate()
	}
	if !refineGroup(out, sp, pn.CondVar, p) {
		return nil, nil
	}
	return out, cloneCells(in)
}

// provenance classifies which fact kind decided the branch in the edge
// state: the predecessor's refinement alone (assert), the copy group that
// populated the tested cell (copy), an interval bound (interval), or the
// plain constant value (value).
func (s *SCCP) provenance(bn *ir.Node, bsp *space, st []cell, o pred.Outcome, refinedOnly bool) Provenance {
	if o == pred.Unknown {
		return ProvNone
	}
	if refinedOnly {
		return ProvAssert
	}
	if sl := bsp.slot(bn.CondVar); sl >= 0 && sl < len(st) && st[sl].alias != ir.NoVar {
		return ProvCopy
	}
	lv := valueOf(st, bsp, bn.CondVar)
	rv := operandValue(st, bsp, bn.CondRHS)
	if lv.kind == vRange || rv.kind == vRange {
		return ProvInterval
	}
	return ProvValue
}

// convertState carries a state into another procedure's space: globals
// survive (aliases rooted in locals are dropped), everything else bottoms
// out — the read-only twin of the propagation engine's cross-space convert.
func (s *SCCP) convertState(st []cell, to *space) []cell {
	out := make([]cell, len(to.vars))
	for i := range out {
		if i < s.nGlobals {
			if i < len(st) {
				c := st[i]
				if c.alias != ir.NoVar && !s.isGlobalVar(c.alias) {
					c.alias = ir.NoVar
				}
				out[i] = c
			} else {
				out[i] = cell{v: bottom(), alias: ir.NoVar}
			}
		} else {
			out[i] = cell{v: bottom(), alias: ir.NoVar}
		}
	}
	return out
}

func (s *SCCP) isGlobalVar(v ir.VarID) bool {
	return v >= 0 && int(v) < len(s.prog.Vars) && s.prog.Vars[v] != nil && s.prog.Vars[v].IsGlobal()
}
