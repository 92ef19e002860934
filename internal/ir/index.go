package ir

import "fmt"

// Index is a dense, read-only acceleration structure for one Program
// revision: the call-site↔entry↔exit links that CallPred, ExitPred and
// EntrySucc otherwise re-derive by scanning predecessor/successor lists are
// resolved once into slices indexed directly by NodeID. The analysis builds
// one Index per Analyzer and hits it on every call-site-exit pair, turning
// the per-pair linear scans of the hot path into O(1) loads.
//
// An Index is a snapshot: it reflects the program at BuildIndex time and
// must be rebuilt after any mutation (the optimization driver re-creates
// its per-round Analyzer — and with it the Index — from each snapshot).
type Index struct {
	// callPred[ce] is the unique NCall predecessor of a call-site-exit
	// node, or NoNode when there is not exactly one (CallPred semantics).
	callPred []NodeID
	// exitPred[ce] is the unique NExit predecessor of a call-site-exit
	// node, or NoNode when there is not exactly one (ExitPred semantics).
	exitPred []NodeID
	// entrySucc[call] is the unique NEntry successor of a call node;
	// noEntry / multiEntry mark the malformed cases so EntrySucc can
	// reproduce the Program method's lazy panics exactly.
	entrySucc []NodeID
}

const (
	noEntry    NodeID = -1
	multiEntry NodeID = -2
)

// BuildIndex precomputes the call-site link slices for the program as it
// currently stands. Malformed regions (a call-site exit with zero or
// several call predecessors, a call with no entry successor) are recorded
// as absent, never reported eagerly: like the Program methods, the Index
// only complains when the broken link is actually consulted.
func BuildIndex(p *Program) *Index {
	n := p.numNodes
	ix := &Index{
		callPred:  make([]NodeID, n),
		exitPred:  make([]NodeID, n),
		entrySucc: make([]NodeID, n),
	}
	for i := range n {
		ix.callPred[i], ix.exitPred[i], ix.entrySucc[i] = NoNode, NoNode, noEntry
		nd := p.Node(NodeID(i))
		if nd == nil {
			continue
		}
		switch nd.Kind {
		case NCallExit:
			if c := p.CallPred(nd); c != nil {
				ix.callPred[i] = c.ID
			}
			if e := p.ExitPred(nd); e != nil {
				ix.exitPred[i] = e.ID
			}
		case NCall:
			for _, s := range nd.Succs {
				if sn := p.Node(s); sn != nil && sn.Kind == NEntry {
					if ix.entrySucc[i] != noEntry {
						ix.entrySucc[i] = multiEntry
						break
					}
					ix.entrySucc[i] = s
				}
			}
		}
	}
	return ix
}

// CallPred returns the unique call-site predecessor of a call-site-exit
// node, or NoNode when there is not exactly one.
func (ix *Index) CallPred(ce NodeID) NodeID { return ix.callPred[ce] }

// ExitPred returns the unique procedure-exit predecessor of a
// call-site-exit node, or NoNode when there is not exactly one.
func (ix *Index) ExitPred(ce NodeID) NodeID { return ix.exitPred[ce] }

// EntrySucc returns the entry successor of a call node. Like
// Program.EntrySucc it panics on malformed graphs, with the same messages,
// so indexed and unindexed analysis fail identically.
func (ix *Index) EntrySucc(call NodeID) NodeID {
	switch e := ix.entrySucc[call]; e {
	case noEntry:
		panic(fmt.Sprintf("ir: call node %d has no entry successor", call))
	case multiEntry:
		panic(fmt.Sprintf("ir: call node %d has multiple entry successors", call))
	default:
		return e
	}
}

// NumNodes returns the node-arena size the index was built for.
func (ix *Index) NumNodes() int { return len(ix.callPred) }
