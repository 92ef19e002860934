// Package fold turns the CCP oracle's facts into a second optimizer pass:
// residual attribution (phase 1) classifies every conditional the
// correlation analysis left behind by whether the oracle decides it on all,
// some or none of its executable in-edges, and the rewriter (phase 2) folds branches constant on all executable in-edges and
// redirects the deciding in-edges of edge-split residuals straight to the
// implied arm — the degenerate form of Breitner-style conditional
// duplication for a single side-effect-free conditional (duplicating the
// branch per deciding in-edge class and folding each copy is exactly a
// redirection, with zero code growth).
//
// The package is a pure graph analysis plus an unguarded rewrite: the
// transactional harness around it (internal/restructure's fold pass) owns
// the forks, validation, invariant regression, shadow execution, and
// the post-fold re-check.
package fold

import (
	"fmt"

	"icbe/internal/check"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Class is the residual attribution of one conditional.
type Class uint8

// Residual classes.
const (
	// ClassUndecidable: no executable in-edge decides the condition.
	ClassUndecidable Class = iota
	// ClassValue: the condition is constant on every executable in-edge.
	ClassValue
	// ClassEdgeSplit: only some executable in-edges decide the condition —
	// eliminable per-edge by redirection, not as a whole.
	ClassEdgeSplit
)

func (c Class) String() string {
	switch c {
	case ClassUndecidable:
		return "undecidable"
	case ClassValue:
		return "value"
	case ClassEdgeSplit:
		return "edge-split"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// BranchFact is the fact table row for one live conditional: its residual
// class, the whole-branch outcome when one exists, and the per-edge oracle
// verdicts.
type BranchFact struct {
	Branch ir.NodeID
	Line   int
	Class  Class
	// Outcome is the branch's constant outcome when the class is ClassValue
	// (decided either by the entry state or by unanimous agreement of the
	// executable in-edges); pred.Unknown otherwise.
	Outcome pred.Outcome
	// Edges holds one fact per in-edge, in predecessor-list order.
	Edges        []check.EdgeFact
	LiveEdges    int
	DecidedEdges int
}

// Foldable reports whether the rewriter has anything to do for this row.
func (bf *BranchFact) Foldable() bool { return bf.Class != ClassUndecidable }

// Facts is the residual fact table of one settled program.
type Facts struct {
	// Branches holds one row per live conditional, in node order.
	Branches []BranchFact
	// Residual counts the conditionals the oracle proves constant on every
	// executable in-edge (ClassValue rows) — the fold pass's
	// elimination target. It is a superset of the check gate's SCCPResidual
	// stat, which counts only analyzable branches decided by the entry
	// state: the per-edge replay also decides branches whose entry-state
	// meet lost the bound and branches outside ICBE's analyzable shape.
	Residual int
}

// Analyze runs the oracle on the program and computes its fact table.
func Analyze(p *ir.Program) *Facts { return Compute(p, check.RunSCCP(p)) }

// Compute builds the residual fact table from an existing oracle run
// (which must have been produced from exactly this program).
func Compute(p *ir.Program, s *check.SCCP) *Facts {
	f := &Facts{}
	// Every row's edge facts are carved from one block, replayed in one
	// buffer.
	edges := 0
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			edges += len(n.Preds)
		}
	})
	block := make([]check.EdgeFact, 0, edges)
	var rb check.EdgeReplay
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind != ir.NBranch {
			return
		}
		start := len(block)
		block = s.EdgeFacts(block, n.ID, &rb)
		bf := BranchFact{
			Branch:  n.ID,
			Line:    int(n.Line),
			Outcome: pred.Unknown,
			Edges:   block[start:len(block):len(block)],
		}
		whole := s.BranchOutcome(n.ID)
		agreed := pred.Unknown
		unanimous := true
		for _, e := range bf.Edges {
			if !e.Live {
				continue
			}
			bf.LiveEdges++
			if e.Outcome == pred.Unknown {
				unanimous = false
				continue
			}
			bf.DecidedEdges++
			if agreed == pred.Unknown {
				agreed = e.Outcome
			} else if agreed != e.Outcome {
				unanimous = false
			}
		}
		switch {
		case whole != pred.Unknown:
			bf.Outcome = whole
		case bf.LiveEdges > 0 && bf.DecidedEdges == bf.LiveEdges && unanimous:
			// The entry state is the meet of the edge states, and the
			// containment-only meet can lose the deciding bound (e.g. two
			// different constants that both fail the comparison) — the
			// unanimous per-edge verdict is strictly stronger.
			bf.Outcome = agreed
		}
		switch {
		case bf.Outcome != pred.Unknown:
			bf.Class = ClassValue
			f.Residual++
		case bf.DecidedEdges > 0:
			bf.Class = ClassEdgeSplit
		default:
			bf.Class = ClassUndecidable
		}
		f.Branches = append(f.Branches, bf)
	})
	return f
}

// Apply rewrites the program in place according to one fact-table row.
// For ClassValue the branch folds whole: the dead arm's edge is
// removed and the node becomes a synthetic nop (the caller's prune sweeps
// the arm). For ClassEdgeSplit each deciding executable in-edge is
// redirected straight to the arm its outcome selects. It returns the
// number of redirected in-edges (zero for a whole-branch fold) and whether
// the program changed at all.
//
// Apply skips rather than rewrites anything unsafe: predecessors with
// parallel edges into the branch (RedirectSucc rewires the first occurrence
// only), call and exit predecessors (their out-edges carry interprocedural
// linkage), and arms that loop back into the branch itself. It performs no
// verification — callers run it on a fork (ir.Fork) under the
// transactional gates, so it writes only through the ir mutators and Mut.
func Apply(p *ir.Program, bf *BranchFact) (redirected int, changed bool) {
	n := p.Node(bf.Branch)
	if n == nil || n.Kind != ir.NBranch || len(n.Succs) != 2 {
		return 0, false
	}
	switch bf.Class {
	case ClassValue:
		var keep, drop ir.NodeID
		switch bf.Outcome {
		case pred.True:
			keep, drop = n.Succs[0], n.Succs[1]
		case pred.False:
			keep, drop = n.Succs[1], n.Succs[0]
		default:
			return 0, false
		}
		if keep == bf.Branch {
			// The surviving arm loops straight back: folding would leave a
			// self-looping nop. The branch is already an infinite loop at
			// runtime; leave it for the shadow oracle to reason about.
			return 0, false
		}
		p.RemoveEdge(n.ID, drop)
		n = p.Mut(n.ID)
		n.Kind = ir.NNop
		n.Synthetic = true
		return 0, true
	case ClassEdgeSplit:
		// edgeCount guards against parallel in-edges: RedirectSucc rewires
		// the first occurrence, so a predecessor with two edges into the
		// branch cannot be rewired per-slot.
		edgeCount := make(map[ir.NodeID]int, len(bf.Edges))
		for _, e := range bf.Edges {
			edgeCount[e.From]++
		}
		for _, e := range bf.Edges {
			if !e.Live || e.Outcome == pred.Unknown || edgeCount[e.From] > 1 {
				continue
			}
			pn := p.Node(e.From)
			if pn == nil || pn.Kind == ir.NCall || pn.Kind == ir.NExit {
				continue
			}
			// Re-read: an earlier redirect may have privatized the branch.
			n = p.Node(bf.Branch)
			arm := n.Succs[0]
			if e.Outcome == pred.False {
				arm = n.Succs[1]
			}
			if arm == bf.Branch || e.Slot < 0 || e.Slot >= len(pn.Succs) || pn.Succs[e.Slot] != bf.Branch {
				continue
			}
			p.RedirectSucc(pn.ID, bf.Branch, arm)
			redirected++
		}
		return redirected, redirected > 0
	}
	return 0, false
}
