package restructure

import (
	"fmt"
	"slices"
	"sync"

	"icbe/internal/ir"
)

// normalize restores call-site normal form after splitting (the paper's
// final conversion step in Figure 7): every call-site-exit node is
// duplicated so that each copy has exactly one call-site predecessor and
// one procedure-exit predecessor. Only (call, exit) combinations that are
// possible — the exit is reachable from the entry the call invokes, and the
// pair's answers are consistent with the node's — are materialized. On a
// Local fork only touched nodes can have lost normal form, so both scans
// walk the program's region (ir.Program.RegionNodes), in ID order: copies
// are created in that order, and any other would renumber them.
func (r *rest) normalize() error {
	// Verify normal form (a): each call has one entry successor.
	var err error
	r.p.RegionNodes(func(n *ir.Node) {
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
	r.p.RegionNodes(func(n *ir.Node) {
		if n.Kind == ir.NCallExit {
			ces = append(ces, n)
		}
	})
	for _, ce := range ces {
		calls, exits := callExitPredsOf(r.p, ce)
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
	off := r.at(ce.ID)
	if off < 0 {
		return true
	}
	o := r.origOf(ce.ID)
	for i, q := range r.res.QueriesAt(o) {
		a := r.ans[off+int32(i)]
		if a == 0 {
			continue
		}
		sups := r.res.SuppliersAt(o, q)
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
	pruneProgram(r.p, r.initiallyDead)
}

// uncalledEntries lists the entries that have no call sites: the
// initiallyDead list pruneProgram keeps, taken before a transformation.
func uncalledEntries(p *ir.Program) []ir.NodeID {
	var out []ir.NodeID
	for _, pr := range p.Procs {
		if pr == nil {
			continue
		}
		for _, e := range pr.Entries {
			if n := p.Node(e); n != nil && len(n.Preds) == 0 {
				out = append(out, e)
			}
		}
	}
	return out
}

// testHookPrune, when non-nil, runs at the start of every pruneProgram call
// and the function it returns when the call ends. Tests use it to compare a
// region prune against a whole-program prune of the same input. It must be
// nil outside tests.
var testHookPrune func(p *ir.Program, initiallyDead []ir.NodeID) func()

// pruneProgram is the standalone form of the sweep, shared with the fold
// pass (which prunes forks with no restructuring state around).
// initiallyDead lists the entries that were already uncalled before the
// caller's transformation, which the sweep keeps.
//
// Every step works on a region of the program (ir.Program.RegionNodes):
// all live nodes, or on a Local fork only the nodes it touched, since the
// settled program it was forked from was at this sweep's fixpoint. An
// entry loses its call sites, and a node its successors or predecessors,
// only through a write that touches it, so the dead-entry and cascade steps
// need look only at touched nodes. Reachability can be lost only in C, the
// forward closure of the touched nodes within their procedures: a write
// that broke a node's path from an entry touched some node on it, and the
// last such node still reaches it, putting it in C. C is flooded from its
// listed entries and from its nodes with a live predecessor outside C
// (which is reachable), and whatever the flood misses is removed. With the
// whole program as the region, C is every live node and the flood is the
// plain one from all entries.
func pruneProgram(p *ir.Program, initiallyDead []ir.NodeID) {
	if testHookPrune != nil {
		defer testHookPrune(p, initiallyDead)()
	}
	remove := func(id ir.NodeID) {
		n := p.Node(id)
		if n == nil {
			return
		}
		if n.Proc >= 0 && n.Proc < len(p.Procs) && p.Procs[n.Proc] != nil {
			switch n.Kind {
			case ir.NEntry:
				pr := p.MutProc(n.Proc)
				pr.Entries = removeID(pr.Entries, id)
			case ir.NExit:
				pr := p.MutProc(n.Proc)
				pr.Exits = removeID(pr.Exits, id)
			}
		}
		p.DeleteNode(id)
	}
	removeAll := func(ids []ir.NodeID) bool {
		changed := false
		for _, id := range ids {
			if p.Node(id) != nil {
				remove(id)
				changed = true
			}
		}
		return changed
	}
	// Membership bits for C and for the flood, and the work lists, come
	// from a pool shared by every prune, so an attempt's prunes allocate
	// none of them once the pool is warm. Nodes are only deleted here, so
	// the arena never grows past the bits; each iteration clears exactly
	// the bits it set, so they go back clean. A prune that panics drops
	// its scratch instead of returning it.
	sc := pruneScratchPool.Get().(*pruneScratch)
	sc.inC, sc.seen = sc.inC.grow(p.NumNodes()), sc.seen.grow(p.NumNodes())
	inC, seen := sc.inC, sc.seen
	region, stack, dead := sc.region[:0], sc.stack[:0], sc.dead[:0]
	for {
		// Drop dead entries (never for main, which is invoked externally,
		// and never for procedures that were already uncalled on input).
		// An unlisted entry node is dropped here rather than by the flood
		// below, which would miss it too.
		dead = dead[:0]
		p.RegionNodes(func(n *ir.Node) {
			if n.Kind == ir.NEntry && n.Proc != p.MainProc && len(n.Preds) == 0 && !slices.Contains(initiallyDead, n.ID) {
				dead = append(dead, n.ID)
			}
		})
		changed := removeAll(dead)

		// Remove nodes unreachable from the remaining entries. Procedures
		// partition the node arena and the walk never crosses a procedure
		// boundary, so one flood covers them all.
		region = region[:0]
		p.RegionNodes(func(n *ir.Node) {
			inC.set(n.ID)
			region = append(region, n.ID)
		})
		for i := 0; i < len(region); i++ {
			n := p.Node(region[i])
			for _, s := range n.Succs {
				if sn := p.Node(s); sn != nil && sn.Proc == n.Proc && !inC.has(s) {
					inC.set(s)
					region = append(region, s)
				}
			}
		}
		// Seed C's listed entries and its nodes with a live predecessor
		// outside C, which is reachable.
		stack = stack[:0]
		for _, id := range region {
			n := p.Node(id)
			seed := n.Kind == ir.NEntry && n.Proc >= 0 && n.Proc < len(p.Procs) &&
				p.Procs[n.Proc] != nil && slices.Contains(p.Procs[n.Proc].Entries, id)
			for _, m := range n.Preds {
				if mn := p.Node(m); !seed && mn != nil && mn.Proc == n.Proc && !inC.has(m) {
					seed = true
				}
			}
			if seed {
				seen.set(id)
				stack = append(stack, id)
			}
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n := p.Node(id)
			for _, s := range n.Succs {
				if sn := p.Node(s); sn != nil && sn.Proc == n.Proc && inC.has(s) && !seen.has(s) {
					seen.set(s)
					stack = append(stack, s)
				}
			}
		}
		var unreachable []ir.NodeID
		for _, id := range region {
			if !seen.has(id) {
				unreachable = append(unreachable, id)
			}
			inC.clear(id)
			seen.clear(id)
		}
		slices.Sort(unreachable)
		if removeAll(unreachable) {
			changed = true
		}

		// Structural cascades.
		var victims []ir.NodeID
		var unbranch []ir.NodeID
		p.RegionNodes(func(n *ir.Node) {
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
		if removeAll(victims) {
			changed = true
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
			sc.region, sc.stack, sc.dead = region, stack, dead
			pruneScratchPool.Put(sc)
			return
		}
	}
}

// pruneScratch is one prune's reusable state: the bitsets, clear between
// prunes, and the work lists' backing arrays.
type pruneScratch struct {
	inC, seen           nodeBits
	region, stack, dead []ir.NodeID
}

var pruneScratchPool = sync.Pool{New: func() any { return new(pruneScratch) }}

// nodeBits is a bitset over node IDs; IDs beyond it read as absent.
type nodeBits []uint64

// grow returns b if it covers n IDs, otherwise a clear bitset that does.
func (b nodeBits) grow(n int) nodeBits {
	if len(b)*64 >= n {
		return b
	}
	return make(nodeBits, (n+63)/64)
}

func (b nodeBits) has(id ir.NodeID) bool {
	return id >= 0 && int(id>>6) < len(b) && b[id>>6]&(1<<(uint(id)&63)) != 0
}
func (b nodeBits) set(id ir.NodeID)   { b[id>>6] |= 1 << (uint(id) & 63) }
func (b nodeBits) clear(id ir.NodeID) { b[id>>6] &^= 1 << (uint(id) & 63) }
