package restructure

import (
	"fmt"

	"icbe/internal/ir"
)

// normalize restores call-site normal form after splitting (the paper's
// final conversion step in Figure 7): every call-site-exit node is
// duplicated so that each copy has exactly one call-site predecessor and
// one procedure-exit predecessor. Only (call, exit) combinations that are
// possible — the exit is reachable from the entry the call invokes, and the
// pair's answers are consistent with the node's — are materialized.
func (r *rest) normalize() error {
	// Verify normal form (a): each call has one entry successor.
	var err error
	r.p.LiveNodes(func(n *ir.Node) {
		if err != nil || n.Kind != ir.NCall {
			return
		}
		entries := 0
		for _, s := range n.Succs {
			if sn := r.p.Node(s); sn != nil && sn.Kind == ir.NEntry {
				entries++
			}
		}
		if entries != 1 {
			err = fmt.Errorf("restructure: call %d has %d entry successors after splitting", n.ID, entries)
		}
	})
	if err != nil {
		return err
	}

	reach := newReachCache(r.p)
	var ces []*ir.Node
	r.p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NCallExit {
			ces = append(ces, n)
		}
	})
	for _, ce := range ces {
		calls, exits := r.callExitPreds(ce)
		if len(calls) == 1 && len(exits) == 1 {
			continue
		}
		if len(calls) == 0 || len(exits) == 0 {
			// Unreachable remnant; pruning removes it.
			continue
		}
		for _, c := range calls {
			entry := r.p.EntrySucc(r.p.Node(c))
			for _, e := range exits {
				if !reach.reaches(entry.ID, e) {
					continue
				}
				if !r.pairConsistent(ce, c, e) {
					continue
				}
				copyNode := r.cloneNode(ce)
				// The clone duplicated every incident edge; keep only this
				// pair's predecessors (successors stay).
				for _, m := range append([]ir.NodeID(nil), copyNode.Preds...) {
					mn := r.p.Node(m)
					if mn == nil {
						continue
					}
					if (mn.Kind == ir.NCall && m != c) || (mn.Kind == ir.NExit && m != e) {
						r.p.RemoveEdge(m, copyNode.ID)
					}
				}
			}
		}
		r.removeNode(ce.ID)
	}
	return nil
}

// pairConsistent reports whether a (call, exit) predecessor pair can
// deliver any of the node's answers for every query the analysis raised at
// it. Unvisited call-site exits (no queries) are unconstrained.
func (r *rest) pairConsistent(ce *ir.Node, call, exit ir.NodeID) bool {
	for _, q := range r.queriesAt(ce.ID) {
		a := r.ans[ce.ID][q.ID]
		if a == 0 {
			continue
		}
		sups := r.suppliers(ce.ID, q)
		if len(sups) == 0 {
			continue
		}
		if !hasExitSupplier(sups) {
			if r.pairAnswer(call, ir.NoNode, sups)&a == 0 {
				return false
			}
			continue
		}
		if r.pairAnswer(call, exit, sups)&a == 0 {
			return false
		}
	}
	return true
}

// reachCache answers intraprocedural reachability queries from procedure
// entries (treating call → call-site-exit as the local fallthrough).
type reachCache struct {
	p    *ir.Program
	from map[ir.NodeID]map[ir.NodeID]bool
}

func newReachCache(p *ir.Program) *reachCache {
	return &reachCache{p: p, from: make(map[ir.NodeID]map[ir.NodeID]bool)}
}

func (rc *reachCache) reaches(entry, target ir.NodeID) bool {
	seen, ok := rc.from[entry]
	if !ok {
		seen = make(map[ir.NodeID]bool)
		proc := rc.p.Node(entry).Proc
		stack := []ir.NodeID{entry}
		seen[entry] = true
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range rc.p.Node(id).Succs {
				sn := rc.p.Node(s)
				if sn == nil || sn.Proc != proc || seen[s] {
					continue
				}
				seen[s] = true
				stack = append(stack, s)
			}
		}
		rc.from[entry] = seen
	}
	return seen[target]
}

// prune removes entry copies that lost all their call sites and every node
// no longer reachable from its procedure's entries — this implements the
// paper's observation that statements reachable only from a bypassed
// original entry can be deleted. It also cascades the structural
// consequences of unreachability proven by the analysis: call-site exits
// whose exit (or call) predecessor died can never receive control; calls
// with no remaining return point never complete; non-exit nodes with no
// successors are dead ends; and a branch with exactly one surviving arm
// always takes it and becomes unconditional.
func (r *rest) prune() {
	pruneProgram(r.p, r.initiallyDead, func(id ir.NodeID) { delete(r.ans, id) })
}

// pruneProgram is the standalone form of the sweep, shared with the fold
// pass (which prunes scratch clones with no restructuring state around).
// initiallyDead protects entries that were already uncalled before the
// caller's transformation; onRemove, when non-nil, observes every deleted
// node so callers can drop their own per-node bookkeeping.
func pruneProgram(p *ir.Program, initiallyDead map[ir.NodeID]bool, onRemove func(ir.NodeID)) {
	remove := func(id ir.NodeID) {
		n := p.Node(id)
		if n == nil {
			return
		}
		if n.Proc >= 0 && n.Proc < len(p.Procs) && p.Procs[n.Proc] != nil {
			pr := p.Procs[n.Proc]
			switch n.Kind {
			case ir.NEntry:
				pr.Entries = removeID(pr.Entries, id)
			case ir.NExit:
				pr.Exits = removeID(pr.Exits, id)
			}
		}
		p.DeleteNode(id)
		if onRemove != nil {
			onRemove(id)
		}
	}
	// Generation-marked reachability scratch, shared across fixpoint
	// iterations: one O(nodes + edges) sweep over all procedures per
	// iteration, instead of a per-procedure scan of the whole node arena
	// (which made each iteration O(procs × nodes) — quadratic at the 100k-node
	// scale the stress benchmark runs).
	seen := make([]uint32, len(p.Nodes))
	gen := uint32(0)
	var stack []ir.NodeID
	for {
		gen++
		changed := false
		// Drop dead entries (never for main, which is invoked externally,
		// and never for procedures that were already uncalled on input).
		for _, pr := range p.Procs {
			if pr == nil || pr.Index == p.MainProc {
				continue
			}
			for _, e := range append([]ir.NodeID(nil), pr.Entries...) {
				n := p.Node(e)
				if n != nil && len(n.Preds) == 0 && !initiallyDead[e] {
					remove(e)
					changed = true
				}
			}
		}
		// Remove nodes unreachable from the remaining entries. Procedures
		// partition the node arena and the walk never crosses a procedure
		// boundary, so all entries seed one flood fill.
		stack = stack[:0]
		for _, pr := range p.Procs {
			if pr == nil {
				continue
			}
			for _, e := range pr.Entries {
				if p.Node(e) != nil && seen[e] != gen {
					seen[e] = gen
					stack = append(stack, e)
				}
			}
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := p.Node(id)
			for _, s := range n.Succs {
				sn := p.Node(s)
				if sn == nil || sn.Proc != n.Proc || seen[s] == gen {
					continue
				}
				seen[s] = gen
				stack = append(stack, s)
			}
		}
		var unreachable []ir.NodeID
		p.LiveNodes(func(n *ir.Node) {
			if seen[n.ID] != gen {
				unreachable = append(unreachable, n.ID)
			}
		})
		for _, id := range unreachable {
			if p.Node(id) != nil {
				remove(id)
				changed = true
			}
		}
		// Structural cascades.
		var victims []ir.NodeID
		var unbranch []ir.NodeID
		p.LiveNodes(func(n *ir.Node) {
			switch n.Kind {
			case ir.NCallExit:
				calls, exits := callExitPredsOf(p, n)
				if len(calls) == 0 || len(exits) == 0 {
					victims = append(victims, n.ID)
				}
			case ir.NCall:
				if len(p.CallExitSuccs(n)) == 0 {
					victims = append(victims, n.ID)
				}
			case ir.NBranch:
				switch len(n.Succs) {
				case 0:
					victims = append(victims, n.ID)
				case 1:
					unbranch = append(unbranch, n.ID)
				}
			case ir.NExit:
			default:
				if len(n.Succs) == 0 {
					victims = append(victims, n.ID)
				}
			}
		})
		for _, id := range victims {
			if p.Node(id) != nil {
				remove(id)
				changed = true
			}
		}
		// A branch whose other arm was proven unreachable always takes the
		// surviving arm.
		for _, id := range unbranch {
			n := p.Node(id)
			if n == nil || len(n.Succs) != 1 {
				continue
			}
			n = p.Mut(id)
			n.Kind = ir.NNop
			n.Synthetic = true
			changed = true
		}
		if !changed {
			return
		}
	}
}
