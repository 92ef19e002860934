package ir

import "slices"

// Fork returns a copy-on-write copy of the program for one transactional
// attempt. The fork copies only the Nodes and Vars pointer slices and the
// Proc headers (with their Entries and Exits); every node stays shared with
// p until the fork writes it. The ir mutators privatize a node — the node
// struct plus its Succs and Preds — the first time the fork writes it, and
// code outside this package that writes node fields directly must obtain
// the node through Mut first. Rollback is discarding the fork; adoption is
// using it in p's place.
//
// Forking also ends p's ownership of its nodes: from then on p privatizes
// before writing too, so neither side can write through to the other. Var
// structs and Proc.Formals are shared outright and never written after
// construction. Fork writes p's ownership bookkeeping, so like any mutation
// it must not run concurrently with other use of p.
//
// A fork of a settled program (see Settle) is Local: it keeps p's entry
// and exit lists and variable count so Validate can check only the region
// the fork touched.
func Fork(p *Program) *Program {
	q := &Program{
		MainProc:    p.MainProc,
		SourceLines: p.SourceLines,
		Vars:        append([]*Var(nil), p.Vars...),
		// Room for the nodes a typical attempt creates, so the first
		// splits do not copy the whole pointer slice again.
		Nodes: make([]*Node, len(p.Nodes), len(p.Nodes)+len(p.Nodes)/8+16),
		cow:   true,
	}
	copy(q.Nodes, p.Nodes)
	q.Procs = make([]*Proc, len(p.Procs))
	procs := make([]Proc, len(p.Procs))
	ends := 0
	for _, pr := range p.Procs {
		if pr != nil {
			ends += len(pr.Entries) + len(pr.Exits)
		}
	}
	if p.settled {
		q.base = &forkBase{
			entries: make([][]NodeID, len(p.Procs)),
			exits:   make([][]NodeID, len(p.Procs)),
			vars:    len(p.Vars),
		}
		ends *= 2
	}
	// One block for every entry and exit list; each carve has cap == len, so
	// appending to one reallocates instead of overwriting its neighbor.
	block := make([]NodeID, 0, ends)
	carve := func(ids []NodeID) []NodeID {
		block = append(block, ids...)
		return block[len(block)-len(ids) : len(block) : len(block)]
	}
	for i, pr := range p.Procs {
		if pr == nil {
			continue
		}
		cp := &procs[i]
		*cp = *pr
		cp.Entries = carve(pr.Entries)
		cp.Exits = carve(pr.Exits)
		q.Procs[i] = cp
		if q.base != nil {
			q.base.entries[i] = carve(pr.Entries)
			q.base.exits[i] = carve(pr.Exits)
		}
	}
	p.cow = true
	p.owned = nil
	p.touched = nil
	p.sorted = nil
	p.prior = nil
	// p's touched set restarts empty, so it no longer describes p's changes
	// against a settled program.
	p.base = nil
	return q
}

// Settle records that p is valid (Validate returns nil) and at a prune
// fixpoint: every node is reachable from its procedure's entries, no
// non-main entry lost its last call site, and no call-site exit, call,
// branch or dead end is left for the prune's structural cascades. Every
// edge of a settled program is also in both of its lists, as the mutators
// keep them (Validate checks only the successor side). The optimization
// driver settles each attempt it adopts, since that attempt ended with a
// prune and passed Validate. Forks of a settled program are
// Local. Any later write through the mutators or Mut clears the mark;
// edits to a procedure's Entries or Exits and writes that bypass Mut are
// not seen and break the claim.
func (p *Program) Settle() { p.settled = true }

// Local reports whether p is a fork of a settled program. Every node such
// a fork has not touched is shared with a valid program at a prune
// fixpoint, so the per-attempt passes need look only at the region around
// Touched; on any other program they look at every live node. A fork that
// is forked in turn stops being Local, as its touched set restarts.
func (p *Program) Local() bool { return p.base != nil }

// RegionNodes calls f in ascending ID order for each live node of p's
// region: on a Local program the nodes it touched, otherwise every live
// node. The region is fixed when the call starts, so nodes f touches or
// creates are not visited.
func (p *Program) RegionNodes(f func(*Node)) {
	if !p.Local() {
		p.LiveNodes(f)
		return
	}
	for _, id := range p.sortedTouched() {
		if n := p.Nodes[id]; n != nil {
			f(n)
		}
	}
}

// sortedTouched returns Touched in ascending order. The sorted copy is kept
// until Touched grows; then the new IDs are sorted and merged into a fresh
// copy, so a caller still iterating the old one is not disturbed.
func (p *Program) sortedTouched() []NodeID {
	old := p.sorted
	if len(old) == len(p.touched) {
		return old
	}
	tail := slices.Clone(p.touched[len(old):])
	slices.Sort(tail)
	merged := make([]NodeID, 0, len(p.touched))
	for len(old) > 0 && len(tail) > 0 {
		if old[0] < tail[0] {
			merged, old = append(merged, old[0]), old[1:]
		} else {
			merged, tail = append(merged, tail[0]), tail[1:]
		}
	}
	merged = append(append(merged, old...), tail...)
	p.sorted = merged
	return merged
}

// Mut returns node id for writing, or nil when the node is deleted. On a
// program that was forked, or is a fork, the first Mut of a node replaces
// it with a private copy (its struct and its Succs and Preds lists) and
// records it in Touched; later calls return that copy. Pointers obtained
// through Node before the Mut keep seeing the shared version, so callers
// that write must re-read through Mut. On a program that was never forked
// Mut is Node. A fork's every node write must go through Mut (or the
// mutators, which use it): a write that bypasses it reaches the program
// the fork shares the node with, and on a Local fork it also escapes
// Validate, which checks only the region around Touched.
func (p *Program) Mut(id NodeID) *Node {
	p.settled = false
	n := p.Nodes[id]
	if !p.cow || n == nil || p.owns(id) {
		return n
	}
	c := p.allocNode()
	*c = *n
	c.Succs = p.copyEdges(n.Succs)
	c.Preds = p.copyEdges(n.Preds)
	p.Nodes[id] = c
	p.touch(id, n)
	return c
}

// Touched returns the nodes the program privatized, created or deleted
// since it was made by Fork or last forked, in first-touch order. Every
// other node is pointer-identical to the one in the program it was forked
// from, so diffing only these nodes finds every change. It is nil for a
// program that was never forked.
func (p *Program) Touched() []NodeID { return p.touched }

// Unshare makes p own every node again, as if it had never been forked. The
// caller asserts that p is the only program still in use among those it
// shares nodes with — every fork of it and every program it was forked from
// has been discarded — so writing in place cannot reach another program.
func (p *Program) Unshare() {
	p.cow = false
	p.owned = nil
	p.touched = nil
	p.sorted = nil
	p.prior = nil
	p.settled = false
	p.base = nil
}

func (p *Program) owns(id NodeID) bool {
	w := int(id) >> 6
	return w < len(p.owned) && p.owned[w]&(1<<(uint(id)&63)) != 0
}

// touch marks a node as the program's own and records it in Touched once,
// with prior, the version it replaced (nil for a created node).
func (p *Program) touch(id NodeID, prior *Node) {
	if p.owns(id) {
		return
	}
	w := int(id) >> 6
	if w >= len(p.owned) {
		// Every id is below cap(p.Nodes), so this covers the arena's growth
		// until the next reallocation.
		grown := make([]uint64, (cap(p.Nodes)+63)/64)
		copy(grown, p.owned)
		p.owned = grown
	}
	p.owned[w] |= 1 << (uint(id) & 63)
	p.touched = append(p.touched, id)
	p.prior = append(p.prior, prior)
}

// allocNode hands out a node slot from the pool. The pool grows with the
// program: a whole program carves chunks of a quarter of its size, from 64
// nodes up, so a build leaves at most a quarter of its size (or 64) in
// unused slots, while a fork carves in proportion to the nodes it has
// written so far, from 8 nodes up, so an attempt that writes a handful of
// nodes pays for a handful.
func (p *Program) allocNode() *Node {
	if len(p.nodePool) == 0 {
		size, floor := len(p.Nodes)/4, 64
		if p.cow {
			size, floor = len(p.touched), 8
		}
		p.nodePool = make([]Node, min(max(size, floor), 1024))
	}
	n := &p.nodePool[0]
	p.nodePool = p.nodePool[1:]
	return n
}

// copyEdges returns a private copy of an edge list with room for two more
// edges, carved from the edge pool when it fits.
func (p *Program) copyEdges(ids []NodeID) []NodeID {
	if len(ids) == 0 {
		return nil
	}
	size := len(ids) + 2
	if size > 64 {
		return append(make([]NodeID, 0, size), ids...)
	}
	if len(p.edgePool) < size {
		p.edgePool = make([]NodeID, 256)
	}
	s := p.edgePool[:len(ids):size]
	p.edgePool = p.edgePool[size:]
	copy(s, ids)
	return s
}
