package ir

import "slices"

// Fork returns a copy-on-write copy of the program for one transactional
// attempt. The fork allocates only its own header: it shares p's node
// table, procedure list and headers, and variable arena. Its first write
// into a node copies the page directory and the node's page, and Mut
// privatizes the node itself — its struct plus its Succs and Preds — so an
// attempt pays for the pages and nodes it writes, not for the program.
// Code outside this package that writes node fields directly must obtain
// the node through Mut first, and edits a procedure's Entries or Exits
// through MutProc. Rollback is discarding the fork; adoption is using it
// in p's place.
//
// Forking also ends p's ownership (Share): from then on p copies before
// writing too, so neither side can write through to the other. Var structs
// and Proc.Formals are shared outright and never written after
// construction. Fork writes p only when p still owns or touched something,
// so goroutines may fork one shared program concurrently as long as none
// of them writes it; icbe.Compile shares every program it returns.
//
// A fork of a settled program (see Settle) is Local: it keeps p's
// procedure headers and variable count so Validate can check only the
// region the fork touched.
func Fork(p *Program) *Program {
	p.Share()
	q := &Program{
		Procs:       p.Procs,
		Vars:        p.Vars[:len(p.Vars):len(p.Vars)],
		MainProc:    p.MainProc,
		SourceLines: p.SourceLines,
		pages:       p.pages,
		numNodes:    p.numNodes,
		cow:         true,
	}
	if p.settled {
		q.base = &forkBase{procs: p.Procs, vars: len(p.Vars)}
	}
	return q
}

// Share gives up p's ownership of its node table, nodes and procedure
// headers, as forking p does: every later write through the mutators, Mut
// or MutProc copies what it lands in first, so programs sharing parts with
// p — forks of it, and results built from those — never see the write. On a
// program that already owns nothing Share writes nothing, so concurrent
// Forks of it are safe.
func (p *Program) Share() {
	if p.cow && p.token == 0 && p.touched == nil && p.base == nil {
		return
	}
	p.cow = true
	p.token = 0
	p.touched = nil
	p.sorted = nil
	p.prior = nil
	// p's touched set restarts empty, so it no longer describes p's changes
	// against a settled program.
	p.base = nil
}

// Settle records that p is valid (Validate returns nil) and at a prune
// fixpoint: every node is reachable from its procedure's entries, no
// non-main entry lost its last call site, and no call-site exit, call,
// branch or dead end is left for the prune's structural cascades. Every
// edge of a settled program is also in both of its lists, as the mutators
// keep them (Validate checks only the successor side). The optimization
// driver settles each attempt it adopts, since that attempt ended with a
// prune and passed Validate. Forks of a settled program are
// Local. Any later write through the mutators, Mut or MutProc clears the
// mark; writes that bypass them are not seen and break the claim.
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
		if n := p.Node(id); n != nil {
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
// program that was forked or shared, or is a fork, the first Mut of a node
// replaces it with a private copy (its struct and its Succs and Preds
// lists) and records it in Touched; later calls return that copy. Pointers
// obtained through Node before the Mut keep seeing the shared version, so
// callers that write must re-read through Mut. On a program that was never
// forked Mut is Node. A fork's every node write must go through Mut (or
// the mutators, which use it): a write that bypasses it reaches the program
// the fork shares the node with, and on a Local fork it also escapes
// Validate, which checks only the region around Touched.
func (p *Program) Mut(id NodeID) *Node {
	p.settled = false
	n := p.Node(id)
	if n == nil || p.owns(id) {
		return n
	}
	c := p.allocNode()
	*c = *n
	c.Succs = p.copyEdges(n.Succs)
	c.Preds = p.copyEdges(n.Preds)
	p.store(id, c, n)
	return c
}

// MutProc returns procedure i's header for editing its Entries or Exits.
// On a program that was forked or shared, or is a fork, the first MutProc
// of a header replaces it with a private copy with private Entries and
// Exits; later calls return that copy. Like Mut it clears the settled mark.
func (p *Program) MutProc(i int) *Proc {
	p.settled = false
	pr := p.Procs[i]
	if !p.cow || pr == nil || pr.owner == p.ownToken() {
		return pr
	}
	if p.procsOwner != p.token {
		p.Procs = slices.Clone(p.Procs)
		p.procsOwner = p.token
	}
	c := *pr
	c.owner = p.token
	c.Entries = slices.Clone(pr.Entries)
	c.Exits = slices.Clone(pr.Exits)
	p.Procs[i] = &c
	return &c
}

// Touched returns the nodes the program privatized, created or deleted
// since it was made by Fork or last forked, in first-touch order. Every
// other node is pointer-identical to the one in the program it was forked
// from, so diffing only these nodes finds every change. It is nil for a
// program that was never forked.
func (p *Program) Touched() []NodeID { return p.touched }

// allocNode hands out a node slot from the pool. The pool grows with the
// program: a whole program carves chunks of a quarter of its size, from 64
// nodes up, so a build leaves at most a quarter of its size (or 64) in
// unused slots, while a fork carves in proportion to the nodes it has
// written so far, from 2 nodes up, so an attempt that writes a handful of
// nodes pays for a handful.
func (p *Program) allocNode() *Node {
	if len(p.nodePool) == 0 {
		size, floor := p.numNodes/4, 64
		if p.cow {
			size, floor = len(p.touched), 2
		}
		p.nodePool = make([]Node, min(max(size, floor), 1024))
	}
	n := &p.nodePool[0]
	p.nodePool = p.nodePool[1:]
	return n
}

// carveEdges returns an empty edge list with capacity size, carved from
// the edge pool. Like the node pool, a fork's edge pool grows with the
// nodes it has written, so an attempt that writes a handful of nodes
// carves a handful of lists.
func (p *Program) carveEdges(size int) []NodeID {
	if len(p.edgePool) < size {
		n := 256
		if p.cow {
			n = min(max(8*len(p.touched), 32), n)
		}
		p.edgePool = make([]NodeID, n)
	}
	s := p.edgePool[:0:size]
	p.edgePool = p.edgePool[size:]
	return s
}

// copyEdges returns a private copy of an edge list with room for two more
// edges, carved from the edge pool when it fits.
func (p *Program) copyEdges(ids []NodeID) []NodeID {
	if len(ids) == 0 {
		return nil
	}
	size := len(ids) + 2
	if size > 32 {
		return append(make([]NodeID, 0, size), ids...)
	}
	return append(p.carveEdges(size), ids...)
}
