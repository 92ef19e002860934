package restructure

// This file keeps the map-based restructurer that Eliminate replaced,
// unchanged but for its names, as the reference TestEliminateMatchesReference
// and FuzzEliminateMatchesReference compare Eliminate against: every node's
// answers are a map keyed by query ID, copies, worklist membership and arm
// snapshots are maps keyed by node, and the query order is re-sorted on every
// worklist pop. It shares the helpers that did not change (queryLess,
// hasExitSupplier, callExitPredsOf, answerBits, removeID, the reach cache and
// the prune sweep) and the step and growth bounds.

import (
	"fmt"
	"sort"

	"icbe/internal/analysis"
	"icbe/internal/ir"
)

func refEliminate(p *ir.Program, res *analysis.Result) (*Outcome, error) {
	if res == nil {
		return nil, fmt.Errorf("restructure: nil analysis result")
	}
	if p.Node(res.Cond) == nil {
		return nil, fmt.Errorf("restructure: conditional %d no longer exists", res.Cond)
	}
	r := &refRest{
		p:      p,
		res:    res,
		orig:   make(map[ir.NodeID]ir.NodeID),
		ans:    make(map[ir.NodeID]map[int]analysis.AnswerSet),
		inWL:   make(map[ir.NodeID]bool),
		origTF: make(map[ir.NodeID][2]ir.NodeID),
	}
	r.init()
	if err := r.checkTransparencyUnambiguous(); err != nil {
		return nil, err
	}
	if err := r.mainLoop(); err != nil {
		return nil, err
	}
	// Remove subgraphs disconnected by edge fixing before the strict arm
	// and normal-form checks.
	r.prune()
	if p.Node(res.Cond) == nil && r.liveCondCopies() == 0 {
		return nil, fmt.Errorf("restructure: conditional %d vanished during splitting", res.Cond)
	}
	if err := r.reorderBranchArms(); err != nil {
		return nil, err
	}
	if err := r.normalize(); err != nil {
		return nil, err
	}
	r.eliminateConditional()
	r.prune()
	r.out.BranchDescendants = make(map[ir.NodeID][]ir.NodeID)
	// Copies are created nodes, so the region always holds them.
	p.RegionNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			if o := r.origOf(n.ID); o != n.ID {
				r.out.BranchDescendants[o] = append(r.out.BranchDescendants[o], n.ID)
			}
		}
	})
	return &r.out, nil
}

type refRest struct {
	p   *ir.Program
	res *analysis.Result

	// orig maps copies to the analysis-time node they descend from;
	// analysis-time nodes are absent (identity).
	orig map[ir.NodeID]ir.NodeID
	// ans holds the current answer sets per live node (indexed by query
	// ID); only nodes visited by the analysis appear.
	ans map[ir.NodeID]map[int]analysis.AnswerSet

	wl   []ir.NodeID
	inWL map[ir.NodeID]bool

	// origTF snapshots the original (true, false) arm IDs of every branch
	// in the visited region, so arm order can be restored after splitting.
	origTF map[ir.NodeID][2]ir.NodeID
	// initiallyDead records entries that already had no call sites in the
	// input (dead procedures are not this transformation's business);
	// pruning only removes entries that lost their call sites here.
	initiallyDead map[ir.NodeID]bool

	out   Outcome
	steps int
}

func (r *refRest) origOf(id ir.NodeID) ir.NodeID {
	if o, ok := r.orig[id]; ok {
		return o
	}
	return id
}

func (r *refRest) queriesAt(id ir.NodeID) []*analysis.Query {
	return refCanonicalQueries(r.res.QueriesAt(r.origOf(id)))
}

// refCanonicalQueries reorders a node's queries by content instead of raise
// order. Raise order is a propagation-schedule artifact: a run replaying
// memoized summaries interns a summary's pairs consecutively, while a fresh
// run interleaves them, so the two runs hand mainLoop the same query sets in
// different orders. mainLoop acts on the first splittable query it sees, and
// that choice decides the IDs of every node the split creates — iteration
// must therefore be a function of content for a seeded run to emit the same
// program as a cold one. The key is unique within a node: the analysis
// interns one query per (var, pred, owner) and one summary entry per
// (exit, var, pred), so no two queries at a node compare equal.
func refCanonicalQueries(qs []*analysis.Query) []*analysis.Query {
	if len(qs) < 2 {
		return qs
	}
	out := make([]*analysis.Query, len(qs))
	copy(out, qs)
	sort.Slice(out, func(i, j int) bool { return queryLess(out[i], out[j]) })
	return out
}

func (r *refRest) resolvedAt(id ir.NodeID, q *analysis.Query) (analysis.AnswerSet, bool) {
	return r.res.ResolvedAt(r.origOf(id), q)
}

func (r *refRest) suppliers(id ir.NodeID, q *analysis.Query) []analysis.EdgeSupplier {
	return r.res.SuppliersAt(r.origOf(id), q)
}

func (r *refRest) enqueue(id ir.NodeID) {
	if r.inWL[id] {
		return
	}
	r.inWL[id] = true
	r.wl = append(r.wl, id)
}

func (r *refRest) init() {
	// Copy the analysis answers into the mutable per-node answer state.
	r.res.ForEachPair(func(pn ir.NodeID, q *analysis.Query, a analysis.AnswerSet) {
		if r.p.Node(pn) == nil {
			return
		}
		m := r.ans[pn]
		if m == nil {
			m = make(map[int]analysis.AnswerSet)
			r.ans[pn] = m
		}
		m[q.ID] = a
	})
	// Snapshot branch arms in the visited region (and the conditional
	// itself) before any mutation.
	for id := range r.ans {
		n := r.p.Node(id)
		if n != nil && n.Kind == ir.NBranch {
			r.origTF[id] = [2]ir.NodeID{n.TrueSucc(), n.FalseSucc()}
		}
	}
	r.initiallyDead = make(map[ir.NodeID]bool)
	for _, pr := range r.p.Procs {
		for _, e := range pr.Entries {
			if n := r.p.Node(e); n != nil && len(n.Preds) == 0 {
				r.initiallyDead[e] = true
			}
		}
	}
	// Seed the worklist with every visited node hosting a multi-answer
	// query (the frontier nodes among them make progress first; the rest
	// re-check cheaply), in node order: the seeding order decides the split
	// order and with it the IDs of created nodes, so iterating the map
	// directly would make the restructured program differ run to run.
	var seeds []ir.NodeID
	for id, m := range r.ans {
		for _, a := range m {
			if a.Count() > 1 {
				seeds = append(seeds, id)
				break
			}
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, id := range seeds {
		r.enqueue(id)
	}
}

// checkTransparencyUnambiguous refuses to restructure when any visited
// call-site exit receives transparent-path answers through more than one
// distinct continuation query (see ErrAmbiguousTransparency). With a single
// continuation query per call site, the TRANS answer class corresponds to
// exactly one caller-side query and edge fixing is path-precise.
func (r *refRest) checkTransparencyUnambiguous() error {
	// Sorted pair order so the reported call-site exit is stable.
	type pk struct {
		node ir.NodeID
		q    *analysis.Query
	}
	var pks []pk
	r.res.ForEachPair(func(pn ir.NodeID, q *analysis.Query, _ analysis.AnswerSet) {
		pks = append(pks, pk{pn, q})
	})
	sort.Slice(pks, func(i, j int) bool {
		if pks[i].node != pks[j].node {
			return pks[i].node < pks[j].node
		}
		return pks[i].q.ID < pks[j].q.ID
	})
	for _, k := range pks {
		node := r.p.Node(k.node)
		if node == nil || node.Kind != ir.NCallExit {
			continue
		}
		sups := r.res.SuppliersAt(k.node, k.q)
		if !hasExitSupplier(sups) {
			continue
		}
		// Count distinct continuation queries per call predecessor.
		distinct := make(map[int]bool)
		for _, s := range sups {
			if !s.FromExit {
				distinct[s.Query.ID] = true
			}
		}
		if len(distinct) > 1 {
			return fmt.Errorf("%w (call-site exit %d)", ErrAmbiguousTransparency, k.node)
		}
	}
	return nil
}

// mainLoop is Figure 8 lines 2–10.
func (r *refRest) mainLoop() error {
	for len(r.wl) > 0 {
		r.steps++
		if r.steps > maxSteps {
			return fmt.Errorf("restructure: did not converge after %d steps", maxSteps)
		}
		if r.out.NodesCreated > maxCreated {
			return fmt.Errorf("restructure: code growth exceeded %d nodes", maxCreated)
		}
		id := r.wl[0]
		r.wl = r.wl[1:]
		r.inWL[id] = false
		node := r.p.Node(id)
		if node == nil {
			continue
		}
		qs := r.queriesAt(id)
		if len(qs) == 0 {
			continue
		}
		removed, edgeRemoved, didSplit, deleted := false, false, false, false
		for _, q := range qs {
			a := r.ans[id][q.ID]
			if a == 0 {
				continue
			}
			// Line 5: drop answers no longer available at predecessors.
			if _, isResolved := r.resolvedAt(id, q); !isResolved {
				avail := r.availAnswers(id, q)
				if na := a & avail; na != a {
					r.ans[id][q.ID] = na
					removed = true
					a = na
				}
				if a == 0 {
					// No predecessor supplies any answer for this query:
					// the node is unreachable (an infeasible combination of
					// per-query answers created by splitting). Delete it so
					// dead copies cannot confuse later passes.
					for _, s := range r.p.Node(id).Succs {
						r.enqueue(s)
					}
					r.removeNode(id)
					deleted = true
					break
				}
			}
			// Line 6: fix-edges.
			if r.fixEdges(id, q) {
				edgeRemoved = true
			}
			// Line 7: split when multiple answers remain.
			if a.Count() > 1 {
				r.split(id, q)
				didSplit = true
				break // id is deleted; copies are on the worklist
			}
		}
		if didSplit || deleted {
			continue
		}
		if removed {
			for _, s := range r.p.Node(id).Succs {
				r.enqueue(s)
			}
		}
		if edgeRemoved {
			// In-edge removal can change the availability of other
			// queries at this node.
			r.enqueue(id)
			for _, s := range r.p.Node(id).Succs {
				r.enqueue(s)
			}
		}
	}
	// Convergence check: every visited live node must host single answers.
	for id, m := range r.ans {
		if r.p.Node(id) == nil {
			continue
		}
		for qid, a := range m {
			if a.Count() > 1 {
				return fmt.Errorf("restructure: node %d still hosts %v for query %d after convergence",
					id, a, qid)
			}
		}
	}
	return nil
}

// availAnswers computes which answers for (id, q) are still supplied by the
// current predecessors (Figure 8 line 5).
func (r *refRest) availAnswers(id ir.NodeID, q *analysis.Query) analysis.AnswerSet {
	node := r.p.Node(id)
	sups := r.suppliers(id, q)
	if len(sups) == 0 {
		// No recorded suppliers (possible only after truncation): leave
		// the answers untouched.
		return analysis.MaskAll
	}
	if node.Kind == ir.NCallExit {
		return r.callExitAvail(node, q, sups)
	}
	var avail analysis.AnswerSet
	for _, m := range node.Preds {
		om := r.origOf(m)
		for _, s := range sups {
			if s.Pred != om {
				continue
			}
			if pa, ok := r.ans[m][s.Query.ID]; ok {
				avail |= pa & s.Mask
			} else {
				// Predecessor without recorded answers: unconstrained.
				avail = analysis.MaskAll
			}
		}
	}
	return avail
}

// callExitAvail computes the availability at a call-site-exit node: answers
// are produced jointly by a (call predecessor, exit predecessor) pair — the
// exit supplies the answers resolved inside the callee, and when the callee
// is transparent (TRANS), the call predecessor supplies the answers of the
// continued entry queries.
func (r *refRest) callExitAvail(node *ir.Node, q *analysis.Query, sups []analysis.EdgeSupplier) analysis.AnswerSet {
	calls, exits := r.callExitPreds(node)
	var avail analysis.AnswerSet
	for _, c := range calls {
		for _, e := range exits {
			avail |= r.pairAnswer(c, e, sups)
		}
	}
	if len(exits) == 0 && !hasExitSupplier(sups) {
		// Skip-style suppliers (the query bypassed the callee): the exit
		// predecessors impose no constraint, and pairing is not needed.
		for _, c := range calls {
			avail |= r.pairAnswer(c, ir.NoNode, sups)
		}
	}
	return avail
}

func (r *refRest) callExitPreds(node *ir.Node) (calls, exits []ir.NodeID) {
	return callExitPredsOf(r.p, node)
}

// pairAnswer computes the answers one (call copy, exit copy) pair delivers
// to a call-site exit, per the supplier structure recorded by the analysis.
func (r *refRest) pairAnswer(call, exit ir.NodeID, sups []analysis.EdgeSupplier) analysis.AnswerSet {
	var a analysis.AnswerSet
	trans := false
	sawExitSup := false
	for _, s := range sups {
		if s.FromExit {
			sawExitSup = true
			if exit == ir.NoNode {
				continue
			}
			ea := r.ans[exit][s.Query.ID]
			a |= ea & s.Mask
			if ea&analysis.AnsTrans != 0 {
				trans = true
			}
		}
	}
	if trans || !sawExitSup {
		// Transparent path (or skip suppliers): the call-side suppliers
		// contribute.
		for _, s := range sups {
			if s.FromExit {
				continue
			}
			if ca, ok := r.ans[call][s.Query.ID]; ok {
				a |= ca & s.Mask
			} else {
				a |= s.Mask
			}
		}
	}
	return a
}

// fixEdges removes predecessor edges that no longer host a common answer
// with the node for query q (Figure 8 fix-edges). Returns whether an edge
// was removed.
func (r *refRest) fixEdges(id ir.NodeID, q *analysis.Query) bool {
	node := r.p.Node(id)
	a := r.ans[id][q.ID]
	if a == 0 {
		return false
	}
	sups := r.suppliers(id, q)
	if len(sups) == 0 {
		return false // resolved here (answers originate at this node)
	}
	if node.Kind == ir.NCallExit {
		return r.fixCallExitEdges(node, q, a, sups)
	}
	removed := false
	for _, m := range append([]ir.NodeID(nil), node.Preds...) {
		om := r.origOf(m)
		var supplied analysis.AnswerSet
		has := false
		unconstrained := false
		for _, s := range sups {
			if s.Pred != om {
				continue
			}
			has = true
			if pa, ok := r.ans[m][s.Query.ID]; ok {
				supplied |= pa & s.Mask
			} else {
				unconstrained = true
			}
		}
		if has && !unconstrained && supplied&a == 0 {
			r.p.RemoveEdge(m, id)
			removed = true
		}
	}
	return removed
}

// fixCallExitEdges applies pair-aware edge fixing at call-site exits: an
// edge stays if it participates in at least one (call, exit) pair whose
// joint answers intersect the node's answers.
func (r *refRest) fixCallExitEdges(node *ir.Node, q *analysis.Query, a analysis.AnswerSet, sups []analysis.EdgeSupplier) bool {
	calls, exits := r.callExitPreds(node)
	if !hasExitSupplier(sups) {
		// Skip suppliers: only call edges are constrained.
		removed := false
		for _, c := range calls {
			if r.pairAnswer(c, ir.NoNode, sups)&a == 0 {
				r.p.RemoveEdge(c, node.ID)
				removed = true
			}
		}
		return removed
	}
	validC := make(map[ir.NodeID]bool)
	validE := make(map[ir.NodeID]bool)
	for _, c := range calls {
		for _, e := range exits {
			if r.pairAnswer(c, e, sups)&a != 0 {
				validC[c] = true
				validE[e] = true
			}
		}
	}
	removed := false
	for _, c := range calls {
		if !validC[c] {
			r.p.RemoveEdge(c, node.ID)
			removed = true
		}
	}
	for _, e := range exits {
		if !validE[e] {
			r.p.RemoveEdge(e, node.ID)
			removed = true
		}
	}
	return removed
}

// split duplicates node id so each copy hosts exactly one of its answers
// for q (Figure 8 split). The original is removed.
func (r *refRest) split(id ir.NodeID, q *analysis.Query) {
	node := r.p.Node(id)
	a := r.ans[id][q.ID]
	r.out.Splits++
	for _, bit := range answerBits {
		if a&bit == 0 {
			continue
		}
		c := r.cloneNode(node)
		r.ans[c.ID][q.ID] = bit
		r.fixEdges(c.ID, q)
		r.enqueue(c.ID)
		for _, s := range c.Succs {
			r.enqueue(s)
		}
	}
	r.removeNode(id)
}

// cloneNode duplicates a node including its incident edges and analysis
// bookkeeping (Q[n], A[n,*]). The source is privatized first, so on a fork
// a self-loop edge added below is visible to the source's later reads.
func (r *refRest) cloneNode(n *ir.Node) *ir.Node {
	n = r.p.Mut(n.ID)
	c := r.p.NewNode(n.Kind, n.Proc)
	c.CopyPayload(n)
	c.Synthetic = n.Synthetic
	c.Line = n.Line
	r.out.NodesCreated++

	// Incident edges: successors first (preserves branch arm order on the
	// copy), then predecessors.
	for _, s := range n.Succs {
		r.p.AddEdge(c.ID, s)
	}
	for _, m := range n.Preds {
		r.p.AddEdge(m, c.ID)
	}

	r.orig[c.ID] = r.origOf(n.ID)
	am := make(map[int]analysis.AnswerSet, len(r.ans[n.ID]))
	for k, v := range r.ans[n.ID] {
		am[k] = v
	}
	r.ans[c.ID] = am

	switch n.Kind {
	case ir.NEntry:
		pr := r.p.MutProc(n.Proc)
		pr.Entries = append(pr.Entries, c.ID)
	case ir.NExit:
		pr := r.p.MutProc(n.Proc)
		pr.Exits = append(pr.Exits, c.ID)
	case ir.NBranch:
		tf := r.origTF[r.origOf(n.ID)]
		r.origTF[c.ID] = tf
	}
	return c
}

// removeNode deletes a node and its bookkeeping, maintaining the procedure
// entry/exit lists.
func (r *refRest) removeNode(id ir.NodeID) {
	n := r.p.Node(id)
	if n == nil {
		return
	}
	switch n.Kind {
	case ir.NEntry:
		pr := r.p.MutProc(n.Proc)
		pr.Entries = removeID(pr.Entries, id)
	case ir.NExit:
		pr := r.p.MutProc(n.Proc)
		pr.Exits = removeID(pr.Exits, id)
	}
	r.p.DeleteNode(id)
	delete(r.ans, id)
}

// reorderBranchArms restores the Succs[0] = true / Succs[1] = false
// convention for every branch in the restructured region, using the
// original-arm lineage snapshot. A branch the attempt never touched keeps
// the arms it was snapshotted with, so the program's region covers every
// branch that can need it.
func (r *refRest) reorderBranchArms() error {
	var err error
	r.p.RegionNodes(func(n *ir.Node) {
		if err != nil || n.Kind != ir.NBranch {
			return
		}
		tf, tracked := r.origTF[n.ID]
		if !tracked {
			tf, tracked = r.origTF[r.origOf(n.ID)]
		}
		if !tracked {
			return // branch outside the restructured region
		}
		if len(n.Succs) != 2 {
			err = fmt.Errorf("restructure: branch %d has %d successors after convergence", n.ID, len(n.Succs))
			return
		}
		o0 := r.origOf(n.Succs[0])
		o1 := r.origOf(n.Succs[1])
		switch {
		case o0 == tf[0] && o1 == tf[1]:
			// Already ordered.
		case o0 == tf[1] && o1 == tf[0]:
			n = r.p.Mut(n.ID)
			n.Succs[0], n.Succs[1] = n.Succs[1], n.Succs[0]
		default:
			err = fmt.Errorf("restructure: branch %d arms (%d,%d) do not descend from (%d,%d)",
				n.ID, n.Succs[0], n.Succs[1], tf[0], tf[1])
		}
	})
	return err
}

// liveCondCopies counts surviving copies of the analyzed conditional. It
// runs only once the conditional itself is deleted, and its copies are
// created nodes, so the program's region holds them all.
func (r *refRest) liveCondCopies() int {
	n := 0
	r.p.RegionNodes(func(nd *ir.Node) {
		if nd.Kind == ir.NBranch && r.origOf(nd.ID) == r.res.Cond {
			n++
		}
	})
	return n
}

// eliminateConditional converts every copy of the analyzed conditional that
// hosts a single TRUE or FALSE answer into straight-line flow (Figure 8
// lines 15–16).
func (r *refRest) eliminateConditional() {
	root := r.res.Root
	// Copies are created nodes and so in the program's region; the
	// conditional itself is put there in case no split touched it.
	r.p.Mut(r.res.Cond)
	var victims []*ir.Node
	r.p.RegionNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && r.origOf(n.ID) == r.res.Cond {
			victims = append(victims, n)
		}
	})
	for _, n := range victims {
		switch r.ans[n.ID][root.ID] {
		case analysis.AnsTrue:
			r.p.RemoveEdge(n.ID, n.FalseSucc())
		case analysis.AnsFalse:
			r.p.RemoveEdge(n.ID, n.TrueSucc())
		default:
			continue
		}
		n = r.p.Mut(n.ID)
		n.Kind = ir.NNop
		n.Synthetic = true
		r.out.BranchCopiesRemoved++
	}
}

// normalize restores call-site normal form after splitting (the paper's
// final conversion step in Figure 7): every call-site-exit node is
// duplicated so that each copy has exactly one call-site predecessor and
// one procedure-exit predecessor. Only (call, exit) combinations that are
// possible — the exit is reachable from the entry the call invokes, and the
// pair's answers are consistent with the node's — are materialized. On a
// Local fork only touched nodes can have lost normal form, so both scans
// walk the program's region (ir.Program.RegionNodes), in ID order: copies
// are created in that order, and any other would renumber them.
func (r *refRest) normalize() error {
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
func (r *refRest) pairConsistent(ce *ir.Node, call, exit ir.NodeID) bool {
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

// prune removes entry copies that lost all their call sites and every node
// no longer reachable from its procedure's entries — this implements the
// paper's observation that statements reachable only from a bypassed
// original entry can be deleted. It also cascades the structural
// consequences of unreachability proven by the analysis: call-site exits
// whose exit (or call) predecessor died can never receive control; calls
// with no remaining return point never complete; non-exit nodes with no
// successors are dead ends; and a branch with exactly one surviving arm
// always takes it and becomes unconditional.
func (r *refRest) prune() {
	// The shared sweep takes the protected entries as a list and no
	// removal callback; dropping the deleted nodes' answers afterwards is
	// what the callback did.
	var dead []ir.NodeID
	for id := range r.initiallyDead {
		dead = append(dead, id)
	}
	pruneProgram(r.p, dead)
	for id := range r.ans {
		if r.p.Node(id) == nil {
			delete(r.ans, id)
		}
	}
}
