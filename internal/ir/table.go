package ir

import (
	"slices"
	"sync/atomic"
)

// The node table is paged: a page directory of pages of pageSize node
// slots. A fork shares the directory, and its first write into a node copies
// the directory (one pointer per page) and the node's page, so an attempt
// pays for the pages it writes and one pointer per page of the program,
// not one per node.
const (
	pageShift = 6
	pageSize  = 1 << pageShift // node slots per page: one word of own bits
)

// nodePage holds pageSize consecutive node slots. Only the program whose
// token is owner writes it in place (on a program that was never forked or
// shared, every page); own marks the slots the owner privatized, created or
// deleted since its last fork, whose nodes it may write in place too.
type nodePage struct {
	owner uint64
	own   uint64
	nodes [pageSize]*Node
}

// tokens issues ownership tokens; zero is never issued.
var tokens atomic.Uint64

// ownToken returns p's ownership token, drawing a fresh one on the first
// write since p lost its ownership.
func (p *Program) ownToken() uint64 {
	if p.token == 0 {
		p.token = tokens.Add(1)
	}
	return p.token
}

// Node returns the node with the given id, or nil if deleted/out of range.
// The slots of the last page at or above numNodes are always empty, so
// one bounds check on the directory covers both ends (a negative id
// converts to a huge page index).
func (p *Program) Node(id NodeID) *Node {
	pi := uint(id) >> pageShift
	if pi >= uint(len(p.pages)) {
		return nil
	}
	return p.pages[pi].nodes[id&(pageSize-1)]
}

// NumNodes returns the size of the node arena: every node ID is below it,
// and deleted nodes keep their slot.
func (p *Program) NumNodes() int { return p.numNodes }

// LiveNodes calls f for every non-deleted node in ascending ID order. The
// arena is fixed when the call starts, so nodes f creates are not visited;
// on a forked or shared program a node f writes may be visited in its old
// version.
func (p *Program) LiveNodes(f func(*Node)) {
	end := p.numNodes
	for base := 0; base < end; base += pageSize {
		for _, n := range p.page(base).nodes[:min(pageSize, end-base)] {
			if n != nil {
				f(n)
			}
		}
	}
}

// AppendNodes appends every slot of the arena to dst, nil for a deleted
// node, so that element i of the appended part is Node(i).
func (p *Program) AppendNodes(dst []*Node) []*Node {
	for base := 0; base < p.numNodes; base += pageSize {
		dst = append(dst, p.page(base).nodes[:min(pageSize, p.numNodes-base)]...)
	}
	return dst
}

// page returns the page holding slot id, which must be below numNodes.
func (p *Program) page(id int) *nodePage { return p.pages[id>>pageShift] }

// extend grows the arena to n slots, the new ones empty.
func (p *Program) extend(n int) {
	for p.numNodes < n {
		id := p.numNodes
		if id&(pageSize-1) == 0 {
			var tok uint64
			if p.cow {
				tok = p.ownToken()
			}
			p.writePages()
			p.pages = append(p.pages, &nodePage{owner: tok})
		}
		p.numNodes = min(n, id|(pageSize-1)+1)
	}
}

// writePages makes p's page directory its own to write.
func (p *Program) writePages() {
	if p.cow && p.pagesOwner != p.ownToken() {
		p.pages = slices.Clone(p.pages)
		p.pagesOwner = p.token
	}
}

// writePage returns the page holding slot id, made p's own to write: on a
// forked or shared program the first write into a page copies it (and the
// page directory, if p does not own it yet).
func (p *Program) writePage(id NodeID) *nodePage {
	pg := p.pages[id>>pageShift]
	if p.cow && pg.owner != p.ownToken() {
		p.writePages()
		pg = &nodePage{owner: p.token, nodes: pg.nodes}
		p.pages[id>>pageShift] = pg
	}
	return pg
}

// store writes slot id (nil frees it). On a forked or shared program the
// first write of a slot since the last fork marks it p's own and records
// it in Touched, with prior, the node it replaced (nil for a created node).
func (p *Program) store(id NodeID, n, prior *Node) {
	pg := p.writePage(id)
	bit := uint64(1) << (id & (pageSize - 1))
	if p.cow && pg.own&bit == 0 {
		pg.own |= bit
		p.touched = append(p.touched, id)
		p.prior = append(p.prior, prior)
	}
	pg.nodes[id&(pageSize-1)] = n
}

// owns reports whether p may write node id in place.
func (p *Program) owns(id NodeID) bool {
	if !p.cow {
		return true
	}
	pg := p.page(int(id))
	return p.token != 0 && pg.owner == p.token && pg.own&(1<<(id&(pageSize-1))) != 0
}
