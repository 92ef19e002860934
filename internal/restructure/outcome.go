package restructure

import "icbe/internal/ir"

// Outcome reports what one Eliminate call did.
type Outcome struct {
	// BranchCopiesRemoved counts conditional copies converted to
	// unconditional flow (>= 1 when the optimization succeeded).
	BranchCopiesRemoved int
	// Splits counts node-splitting operations performed.
	Splits int
	// NodesCreated counts nodes created by splitting and normalization.
	NodesCreated int
	// BranchDescendants maps each original branch node that was split away
	// to its surviving branch copies, so a driver can keep considering
	// them for optimization.
	BranchDescendants map[ir.NodeID][]ir.NodeID
}

// branchCopies groups the live branches of p's region that are copies
// (origOf differs from the ID) by the node they descend from, the form of
// Outcome.BranchDescendants; the map is empty, never nil, when there are
// none.
func branchCopies(p *ir.Program, origOf func(ir.NodeID) ir.NodeID) map[ir.NodeID][]ir.NodeID {
	out := make(map[ir.NodeID][]ir.NodeID)
	p.RegionNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			if o := origOf(n.ID); o != n.ID {
				out[o] = append(out[o], n.ID)
			}
		}
	})
	return out
}
