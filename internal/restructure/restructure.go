// Package restructure implements the ICBE code restructuring algorithm
// (Bodík/Gupta/Soffa, PLDI'97, Figure 8). Given the rolled-back answer sets
// of the correlation analysis, it splits every node hosting multiple
// answers to a query so that each copy hosts a single answer, isolating the
// correlated paths; copies of the analyzed conditional whose answer is TRUE
// or FALSE become unconditional and are removed.
//
// Splitting procedure entry nodes (entry splitting) and procedure exit
// nodes (exit splitting) happens with no special machinery — they are nodes
// of the ICFG like any other — but requires a final normalization pass that
// restores call-site normal form: call-site-exit nodes are duplicated so
// each has exactly one call-site predecessor and one procedure-exit
// predecessor (the paper's "converted to call site normal form").
//
// The transformation is safe: it never adds operations to any path. Its
// correctness is additionally checked at runtime by the interpreter, which
// verifies every assert node it executes.
package restructure

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"icbe/internal/analysis"
	"icbe/internal/ir"
)

// ErrAmbiguousTransparency reports that a conditional cannot be safely
// eliminated because a summary query was symbolically transformed inside a
// callee on one path and left untouched on another: both reach the
// procedure entry and the single TRANS answer conflates the two path
// classes, whose continuations in the caller may decide the conditional
// differently. The four-answer lattice of the paper cannot separate such
// paths, so restructuring declines (the analysis answers themselves remain
// correct as sets).
var ErrAmbiguousTransparency = errors.New("restructure: transparent paths carry distinct continuation queries; cannot isolate correlated paths")

// Eliminate restructures the program to eliminate the analyzed conditional
// along its correlated paths. The program is mutated in place, only through
// the ir mutators and ir.Program.Mut, so it may be a copy-on-write fork
// (ir.Fork). On error it may be left inconsistent, so callers fork or clone
// first and discard on failure. The result is not validated: a caller must
// run ir.Validate before adopting it, as the driver does once per attempt.
func Eliminate(p *ir.Program, res *analysis.Result) (*Outcome, error) {
	if res == nil {
		return nil, fmt.Errorf("restructure: nil analysis result")
	}
	if p.Node(res.Cond) == nil {
		return nil, fmt.Errorf("restructure: conditional %d no longer exists", res.Cond)
	}
	r := &rest{p: p, res: res}
	r.init()
	defer r.releaseWorklist()
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
	// Copies are created nodes, so the region always holds them.
	r.out.BranchDescendants = branchCopies(p, r.origOf)
	return &r.out, nil
}

// rest is one Eliminate call's state. Its tables are slices sized by the
// visited nodes, their pairs and the copies made (only the worklist bitset,
// a bit per node reused from a pool, and the visited rank, an int32 per 64
// nodes, span the program), so its cost follows the pairs it reads and the
// copies it makes. A node's answers are indexed by query slot: slot i is
// the query res.QueriesAt(origOf(node))[i], so every copy has the slots of
// the analysis-time node it descends from.
type rest struct {
	p   *ir.Program
	res *analysis.Result

	// n0 is the node count when restructuring starts: IDs below it are
	// analysis-time nodes, and copies[id-n0] describes copy id.
	n0     ir.NodeID
	copies []copyInfo

	// ans holds the current answer sets, one block per node the analysis
	// visited (and per copy of one), indexed by slot; at locates a node's
	// block. A deleted node keeps its block: only live nodes are read.
	ans []analysis.AnswerSet
	// visited is the analysis' visited-node bitset; rank[w] counts its
	// bits below word w, and visOff[i] is the block offset of the i-th
	// visited node (-1 when it was deleted before restructuring).
	visited []uint64
	rank    []int32
	visOff  []int32
	// ord caches each analysis-time node's slots in canonical query order
	// (see canonicalOrder), at the node's own block offset; -1 until the
	// node is first popped.
	ord []int32

	// wl is the worklist and inWL its membership bitset, whose set bits
	// are exactly wl's entries; wlBuf is inWL's holder in wlBitsPool.
	wl    []ir.NodeID
	inWL  nodeBits
	wlBuf *nodeBits

	// armIDs (ascending) and arms snapshot the original (true, false) arm
	// IDs of every branch in the visited region, so arm order can be
	// restored after splitting.
	armIDs []ir.NodeID
	arms   [][2]ir.NodeID
	// initiallyDead lists entries that already had no call sites in the
	// input (dead procedures are not this transformation's business);
	// pruning only removes entries that lost their call sites here.
	initiallyDead []ir.NodeID

	// preds is fixEdges' scratch copy of a predecessor list.
	preds []ir.NodeID

	out   Outcome
	steps int
}

// copyInfo is a copy's origin (the analysis-time node it descends from)
// and the offset of its answer block, -1 when it has none.
type copyInfo struct {
	orig ir.NodeID
	off  int32
}

func (r *rest) origOf(id ir.NodeID) ir.NodeID {
	if i := id - r.n0; i >= 0 && int(i) < len(r.copies) {
		return r.copies[i].orig
	}
	return id
}

// at returns the offset of node id's answer block in ans, or -1 when it
// has none.
func (r *rest) at(id ir.NodeID) int32 {
	if id >= r.n0 {
		if i := int(id - r.n0); i < len(r.copies) {
			return r.copies[i].off
		}
		return -1
	}
	w := int(id >> 6)
	if id < 0 || w >= len(r.visited) {
		return -1
	}
	word, bit := r.visited[w], uint64(1)<<(uint(id)&63)
	if word&bit == 0 {
		return -1
	}
	return r.visOff[r.rank[w]+int32(bits.OnesCount64(word&(bit-1)))]
}

// answerFor returns node m's answer set for query q, and false when m has
// no recorded answer for it: the analysis did not visit m's origin, or did
// not raise q there.
func (r *rest) answerFor(m ir.NodeID, q *analysis.Query) (analysis.AnswerSet, bool) {
	off := r.at(m)
	if off < 0 {
		return 0, false
	}
	for i, x := range r.res.QueriesAt(r.origOf(m)) {
		if x == q {
			return r.ans[off+int32(i)], true
		}
	}
	return 0, false
}

// canonicalOrder returns an analysis-time node's slots ordered by query
// content instead of raise order. Raise order is a propagation-schedule
// artifact: a run replaying memoized summaries interns a summary's pairs
// consecutively, while a fresh run interleaves them, so the two runs hand
// mainLoop the same query sets in different orders. mainLoop acts on the
// first splittable query it sees, and that choice decides the IDs of every
// node the split creates — iteration must therefore be a function of
// content for a seeded run to emit the same program as a cold one. The key
// is unique within a node: the analysis interns one query per (var, pred,
// owner) and one summary entry per (exit, var, pred), so no two queries at
// a node compare equal.
func (r *rest) canonicalOrder(o ir.NodeID) []int32 {
	qs := r.res.QueriesAt(o)
	off := r.at(o)
	ord := r.ord[off : off+int32(len(qs))]
	if ord[0] < 0 {
		for i := range ord {
			ord[i] = int32(i)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			switch {
			case queryLess(qs[a], qs[b]):
				return -1
			case queryLess(qs[b], qs[a]):
				return 1
			}
			return 0
		})
	}
	return ord
}

func queryLess(a, b *analysis.Query) bool {
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.P.Op != b.P.Op {
		return a.P.Op < b.P.Op
	}
	if a.P.C != b.P.C {
		return a.P.C < b.P.C
	}
	ao, bo := a.Owner, b.Owner
	if (ao == nil) != (bo == nil) {
		return ao == nil // conditional's own queries before summary queries
	}
	if ao == nil {
		return false
	}
	if ao.Exit != bo.Exit {
		return ao.Exit < bo.Exit
	}
	aq, bq := ao.Qsn, bo.Qsn
	if aq.Var != bq.Var {
		return aq.Var < bq.Var
	}
	if aq.P.Op != bq.P.Op {
		return aq.P.Op < bq.P.Op
	}
	return aq.P.C < bq.P.C
}

func (r *rest) enqueue(id ir.NodeID) {
	for int(id>>6) >= len(r.inWL) {
		r.inWL = append(r.inWL, 0)
	}
	if r.inWL.has(id) {
		return
	}
	r.inWL.set(id)
	r.wl = append(r.wl, id)
}

// releaseWorklist clears the worklist bitset's set bits, those of the
// nodes still queued, and returns it to wlBitsPool.
func (r *rest) releaseWorklist() {
	for _, id := range r.wl {
		r.inWL.clear(id)
	}
	*r.wlBuf, r.inWL = r.inWL, nil
	wlBitsPool.Put(r.wlBuf)
}

// wlBitsPool holds Eliminate's worklist bitsets, all clear, so an attempt
// does not allocate a bit per node of the program.
var wlBitsPool = sync.Pool{New: func() any { return new(nodeBits) }}

// forEachVisited calls f in ascending ID order for every node the analysis
// visited that is still live.
func (r *rest) forEachVisited(f func(*ir.Node)) {
	for w, word := range r.visited {
		for ; word != 0; word &= word - 1 {
			if n := r.p.Node(ir.NodeID(w<<6 + bits.TrailingZeros64(word))); n != nil {
				f(n)
			}
		}
	}
}

func (r *rest) init() {
	n := r.p.NumNodes()
	r.n0 = ir.NodeID(n)
	r.wlBuf = wlBitsPool.Get().(*nodeBits)
	r.inWL = r.wlBuf.grow(n)
	// Copy the analysis answers into one block per visited node, and
	// snapshot branch arms in the visited region (and the conditional
	// itself) before any mutation. Seed the worklist with every visited
	// node hosting a multi-answer query (the frontier nodes among them make
	// progress first; the rest re-check cheaply), in node order: the
	// seeding order decides the split order and with it the IDs of created
	// nodes.
	r.visited = r.res.VisitedBits()
	r.rank = make([]int32, len(r.visited))
	r.ans = make([]analysis.AnswerSet, 0, r.res.PairsRaised)
	for w, word := range r.visited {
		r.rank[w] = int32(len(r.visOff))
		for ; word != 0; word &= word - 1 {
			nd := r.p.Node(ir.NodeID(w<<6 + bits.TrailingZeros64(word)))
			if nd == nil {
				r.visOff = append(r.visOff, -1)
				continue
			}
			off := len(r.ans)
			r.visOff = append(r.visOff, int32(off))
			r.ans = r.res.AnswersAt(r.ans, nd.ID)
			if nd.Kind == ir.NBranch {
				r.armIDs = append(r.armIDs, nd.ID)
				r.arms = append(r.arms, [2]ir.NodeID{nd.TrueSucc(), nd.FalseSucc()})
			}
			for _, a := range r.ans[off:] {
				if a.Count() > 1 {
					r.enqueue(nd.ID)
					break
				}
			}
		}
	}
	r.ord = make([]int32, len(r.ans))
	for i := range r.ord {
		r.ord[i] = -1
	}
	r.initiallyDead = uncalledEntries(r.p)
}

// checkTransparencyUnambiguous refuses to restructure when any visited
// call-site exit receives transparent-path answers through more than one
// distinct continuation query (see ErrAmbiguousTransparency). With a single
// continuation query per call site, the TRANS answer class corresponds to
// exactly one caller-side query and edge fixing is path-precise. The
// call-site exits are checked in ID order, so the one reported is stable.
func (r *rest) checkTransparencyUnambiguous() error {
	var err error
	r.forEachVisited(func(n *ir.Node) {
		if err != nil || n.Kind != ir.NCallExit {
			return
		}
		for _, q := range r.res.QueriesAt(n.ID) {
			sups := r.res.SuppliersAt(n.ID, q)
			if !hasExitSupplier(sups) {
				continue
			}
			// At most one continuation query across the call predecessors.
			cont := -1
			for _, s := range sups {
				if s.FromExit {
					continue
				}
				if cont < 0 {
					cont = s.Query.ID
				} else if s.Query.ID != cont {
					err = fmt.Errorf("%w (call-site exit %d)", ErrAmbiguousTransparency, n.ID)
					return
				}
			}
		}
	})
	return err
}

const (
	maxSteps = 2_000_000
	// maxCreated bounds the nodes one Eliminate call may create. The
	// worst-case growth of path duplication is exponential (paper §3.3);
	// the optimizer is expected to gate on the analysis' duplication
	// estimate, and this cap turns a pathological blow-up into a clean
	// error instead of exhausting memory.
	maxCreated = 100_000
)

// mainLoop is Figure 8 lines 2–10.
func (r *rest) mainLoop() error {
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
		r.inWL.clear(id)
		// A node without answers hosts no query to act on.
		off := r.at(id)
		if r.p.Node(id) == nil || off < 0 {
			continue
		}
		o := r.origOf(id)
		qs := r.res.QueriesAt(o)
		removed, edgeRemoved, didSplit, deleted := false, false, false, false
		for _, slot := range r.canonicalOrder(o) {
			a := r.ans[off+slot]
			if a == 0 {
				continue
			}
			// Line 5: drop answers no longer available at predecessors.
			if _, isResolved := r.res.ResolvedAt(o, qs[slot]); !isResolved {
				avail := r.availAnswers(id, qs[slot])
				if na := a & avail; na != a {
					r.ans[off+slot] = na
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
			if r.fixEdges(id, slot) {
				edgeRemoved = true
			}
			// Line 7: split when multiple answers remain.
			if a.Count() > 1 {
				r.split(id, slot)
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
	// Convergence check: every visited live node, and every live copy of
	// one, must host single answers.
	var err error
	converged := func(n *ir.Node) {
		off := r.at(n.ID)
		if err != nil || off < 0 {
			return
		}
		qs := r.res.QueriesAt(r.origOf(n.ID))
		for i, a := range r.ans[off : off+int32(len(qs))] {
			if a.Count() > 1 {
				err = fmt.Errorf("restructure: node %d still hosts %v for query %d after convergence",
					n.ID, a, qs[i].ID)
				return
			}
		}
	}
	r.forEachVisited(converged)
	for id := r.n0; int(id) < r.p.NumNodes(); id++ {
		if n := r.p.Node(id); n != nil {
			converged(n)
		}
	}
	return err
}

// availAnswers computes which answers for (id, q) are still supplied by the
// current predecessors (Figure 8 line 5).
func (r *rest) availAnswers(id ir.NodeID, q *analysis.Query) analysis.AnswerSet {
	node := r.p.Node(id)
	sups := r.res.SuppliersAt(r.origOf(id), q)
	if len(sups) == 0 {
		// No recorded suppliers (possible only after truncation): leave
		// the answers untouched.
		return analysis.MaskAll
	}
	if node.Kind == ir.NCallExit {
		return r.callExitAvail(node, sups)
	}
	var avail analysis.AnswerSet
	for _, m := range node.Preds {
		om := r.origOf(m)
		for _, s := range sups {
			if s.Pred != om {
				continue
			}
			if pa, ok := r.answerFor(m, s.Query); ok {
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
func (r *rest) callExitAvail(node *ir.Node, sups []analysis.EdgeSupplier) analysis.AnswerSet {
	calls, exits := callExitPredsOf(r.p, node)
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

func hasExitSupplier(sups []analysis.EdgeSupplier) bool {
	for _, s := range sups {
		if s.FromExit {
			return true
		}
	}
	return false
}

func callExitPredsOf(p *ir.Program, node *ir.Node) (calls, exits []ir.NodeID) {
	for _, m := range node.Preds {
		mn := p.Node(m)
		if mn == nil {
			continue
		}
		switch mn.Kind {
		case ir.NCall:
			calls = append(calls, m)
		case ir.NExit:
			exits = append(exits, m)
		}
	}
	return calls, exits
}

// pairAnswer computes the answers one (call copy, exit copy) pair delivers
// to a call-site exit, per the supplier structure recorded by the analysis.
func (r *rest) pairAnswer(call, exit ir.NodeID, sups []analysis.EdgeSupplier) analysis.AnswerSet {
	var a analysis.AnswerSet
	trans := false
	sawExitSup := false
	for _, s := range sups {
		if s.FromExit {
			sawExitSup = true
			if exit == ir.NoNode {
				continue
			}
			ea, _ := r.answerFor(exit, s.Query)
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
			if ca, ok := r.answerFor(call, s.Query); ok {
				a |= ca & s.Mask
			} else {
				a |= s.Mask
			}
		}
	}
	return a
}

// fixEdges removes predecessor edges that no longer host a common answer
// with the node for its query at slot (Figure 8 fix-edges). Returns whether
// an edge was removed.
func (r *rest) fixEdges(id ir.NodeID, slot int32) bool {
	node := r.p.Node(id)
	a := r.ans[r.at(id)+slot]
	if a == 0 {
		return false
	}
	o := r.origOf(id)
	sups := r.res.SuppliersAt(o, r.res.QueriesAt(o)[slot])
	if len(sups) == 0 {
		return false // resolved here (answers originate at this node)
	}
	if node.Kind == ir.NCallExit {
		return r.fixCallExitEdges(node, a, sups)
	}
	removed := false
	r.preds = append(r.preds[:0], node.Preds...)
	for _, m := range r.preds {
		om := r.origOf(m)
		var supplied analysis.AnswerSet
		has := false
		unconstrained := false
		for _, s := range sups {
			if s.Pred != om {
				continue
			}
			has = true
			if pa, ok := r.answerFor(m, s.Query); ok {
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
func (r *rest) fixCallExitEdges(node *ir.Node, a analysis.AnswerSet, sups []analysis.EdgeSupplier) bool {
	calls, exits := callExitPredsOf(r.p, node)
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
	// valid[i] marks calls[i], and valid[len(calls)+j] exits[j], as part
	// of a pair that delivers one of the node's answers.
	valid := make([]bool, len(calls)+len(exits))
	for i, c := range calls {
		for j, e := range exits {
			if r.pairAnswer(c, e, sups)&a != 0 {
				valid[i] = true
				valid[len(calls)+j] = true
			}
		}
	}
	removed := false
	for i, m := range append(calls, exits...) {
		if !valid[i] {
			r.p.RemoveEdge(m, node.ID)
			removed = true
		}
	}
	return removed
}

// answerBits iterates the individual answers of a set in a fixed order.
var answerBits = [4]analysis.AnswerSet{analysis.AnsTrue, analysis.AnsFalse, analysis.AnsUndef, analysis.AnsTrans}

// split duplicates node id so each copy hosts exactly one of its answers
// for the query at slot (Figure 8 split). The original is removed.
func (r *rest) split(id ir.NodeID, slot int32) {
	node := r.p.Node(id)
	a := r.ans[r.at(id)+slot]
	r.out.Splits++
	for _, bit := range answerBits {
		if a&bit == 0 {
			continue
		}
		c := r.cloneNode(node)
		r.ans[r.at(c.ID)+slot] = bit
		r.fixEdges(c.ID, slot)
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
func (r *rest) cloneNode(n *ir.Node) *ir.Node {
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

	// The copy descends from n's origin and starts with n's answers.
	ci := copyInfo{orig: r.origOf(n.ID), off: -1}
	if off := r.at(n.ID); off >= 0 {
		ci.off = int32(len(r.ans))
		r.ans = append(r.ans, r.ans[off:off+int32(len(r.res.QueriesAt(ci.orig)))]...)
	}
	// Copies are the only nodes created here, so c.ID == n0+len(copies).
	r.copies = append(r.copies, ci)

	switch n.Kind {
	case ir.NEntry:
		pr := r.p.MutProc(n.Proc)
		pr.Entries = append(pr.Entries, c.ID)
	case ir.NExit:
		pr := r.p.MutProc(n.Proc)
		pr.Exits = append(pr.Exits, c.ID)
	}
	return c
}

// removeNode deletes a node, maintaining the procedure entry/exit lists.
func (r *rest) removeNode(id ir.NodeID) {
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
}

func removeID(ids []ir.NodeID, x ir.NodeID) []ir.NodeID {
	out := ids[:0]
	for _, id := range ids {
		if id != x {
			out = append(out, id)
		}
	}
	return out
}

// reorderBranchArms restores the Succs[0] = true / Succs[1] = false
// convention for every branch in the restructured region, using the
// original-arm lineage snapshot. A branch the attempt never touched keeps
// the arms it was snapshotted with, so the program's region covers every
// branch that can need it.
func (r *rest) reorderBranchArms() error {
	var err error
	r.p.RegionNodes(func(n *ir.Node) {
		if err != nil || n.Kind != ir.NBranch {
			return
		}
		// A copy of a branch descends from a visited one, whose arms the
		// snapshot holds.
		i, tracked := slices.BinarySearch(r.armIDs, r.origOf(n.ID))
		if !tracked {
			return // branch outside the restructured region
		}
		tf := r.arms[i]
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
func (r *rest) liveCondCopies() int {
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
func (r *rest) eliminateConditional() {
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
		switch a, _ := r.answerFor(n.ID, root); a {
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
