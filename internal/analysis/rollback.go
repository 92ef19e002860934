package analysis

import (
	"icbe/internal/ir"
)

// EdgeSupplier identifies one source of answers for a pair (n, q): the
// answers collected for Query at predecessor Pred, filtered through Mask,
// flow into A[n, q]. Restructuring uses the supplier relation to decide
// which edges still connect nodes hosting a common answer (fix-edges) and
// which answers remain available at a node (Figure 8 line 5).
type EdgeSupplier struct {
	Pred  ir.NodeID
	Query *Query
	Mask  AnswerSet
	// FromExit marks the summary supplier crossing a procedure exit →
	// call-site-exit edge; its TRANS answers stand for the transparent
	// paths whose answers arrive through the call-site predecessor instead.
	FromExit bool
}

// MaskAll passes every answer.
const MaskAll = AnsTrue | AnsFalse | AnsUndef | AnsTrans

const maskAll = MaskAll

// rollback collects the resolved answers along the traversed paths: answers
// propagate forward from their resolution sites and are set-unioned at
// merge points (paper §3.1). The propagation structure mirrors the analysis
// exactly, so the supplier sets are recomputed deterministically.
//
// The relation lives in the run's flat arenas: each unresolved pair owns a
// range of supStore (its suppliers), supSrc holds the supplying pair's ID
// per supplier, and the reverse relation (consumers) is a counted
// offset/store pair built in two passes — no per-pair map or slice
// allocations, and the fixpoint unions read contiguous memory.
func (r *run) rollback() {
	st := r.st
	np := len(st.pairNode)

	// Pass 1: supplier ranges for every unresolved pair, in pair order.
	for pid := 0; pid < np; pid++ {
		if st.pairResolved[pid] {
			continue
		}
		off := int32(len(st.supStore))
		r.appendSuppliersOf(int32(pid))
		st.pairSupOff[pid] = off
		st.pairSupLen[pid] = int32(len(st.supStore)) - off
	}

	// Resolve supplier sources to pair IDs (-1 when the supplying pair was
	// never raised — possible only after truncation severed a chain; such a
	// supplier contributes nothing) and count consumers per source.
	st.consLen = resizeInt32(st.consLen, np)
	for _, es := range st.supStore {
		src := st.findPair(es.Pred, es.Query)
		st.supSrc = append(st.supSrc, src)
		if src >= 0 {
			st.consLen[src]++
		}
	}
	st.consOff = resizeInt32(st.consOff, np)
	total := int32(0)
	for pid := 0; pid < np; pid++ {
		st.consOff[pid] = total
		total += st.consLen[pid]
		st.consLen[pid] = 0 // refilled as the cursor in pass 2
	}
	if cap(st.consStore) < int(total) {
		st.consStore = make([]int32, total)
	}
	st.consStore = st.consStore[:total]
	for pid := 0; pid < np; pid++ {
		if st.pairResolved[pid] {
			continue
		}
		off, ln := st.pairSupOff[pid], st.pairSupLen[pid]
		for i := off; i < off+ln; i++ {
			if src := st.supSrc[i]; src >= 0 {
				st.consStore[st.consOff[src]+st.consLen[src]] = int32(pid)
				st.consLen[src]++
			}
		}
	}

	// Seed with resolutions and propagate to a fixpoint.
	wl := st.scratch[:0]
	for pid := 0; pid < np; pid++ {
		if st.pairResolved[pid] {
			st.pairAns[pid] = st.pairRes[pid]
			wl = append(wl, int32(pid))
		}
	}
	for {
		for len(wl) > 0 {
			pid := wl[len(wl)-1]
			wl = wl[:len(wl)-1]
			coff, cln := st.consOff[pid], st.consLen[pid]
			for _, c := range st.consStore[coff : coff+cln] {
				var union AnswerSet
				off, ln := st.pairSupOff[c], st.pairSupLen[c]
				for i := off; i < off+ln; i++ {
					if src := st.supSrc[i]; src >= 0 {
						union |= st.pairAns[src] & st.supStore[i].Mask
					}
				}
				if union != st.pairAns[c] {
					st.pairAns[c] = union
					wl = append(wl, c)
				}
			}
		}
		// A raised pair can end up with an empty answer set when its
		// supplier chain delivers nothing (e.g. the chain was severed by
		// truncation, or it passes only through TRANS-masked summary
		// edges). The paper's rule applies: whatever remains unresolved is
		// UNDEF. Such pairs become resolution sites — their partial
		// supplier information must not constrain restructuring, so their
		// published suppliers are withdrawn (the fixpoint keeps using the
		// relation internally) — and the forced answers propagate to their
		// consumers before the rollback finishes.
		forced := wl[:0]
		for pid := 0; pid < np; pid++ {
			if st.pairAns[pid] == 0 {
				st.pairAns[pid] = AnsUndef
				st.resolvePair(int32(pid), AnsUndef)
				st.pairSupDeleted[pid] = true
				forced = append(forced, int32(pid))
			}
		}
		if len(forced) == 0 {
			st.scratch = wl[:0]
			return
		}
		wl = forced
	}
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// appendSuppliersOf recomputes where the answers for an unresolved pair
// come from, mirroring the propagation cases of process(), and appends them
// to the supplier arena.
func (r *run) appendSuppliersOf(pid int32) {
	st := r.st
	n := r.p.Node(st.pairNode[pid])
	q := st.queries[st.pairQ[pid]]

	switch n.Kind {
	case ir.NEntry:
		// Unresolved entry pairs are interprocedural normal queries with
		// call-site predecessors.
		for _, m := range n.Preds {
			call := r.p.Node(m)
			if sq := r.substEntryLookup(q, call, q.Owner); sq != nil {
				st.supStore = append(st.supStore, EdgeSupplier{Pred: m, Query: sq, Mask: maskAll})
			}
		}

	case ir.NCallExit:
		cv, cp, viaRet := r.callExitContent(n, q)
		call, exit := r.p.CallSite(n)
		if call == ir.NoNode || exit == ir.NoNode {
			return
		}
		if !r.mustTraverse(int(n.Callee), cv, viaRet) {
			if sq := r.lookupQuery(cv, cp, q.Owner); sq != nil {
				st.supStore = append(st.supStore, EdgeSupplier{Pred: call, Query: sq, Mask: maskAll})
			}
			return
		}
		s := st.findSNE(exit, cv, cp)
		if s == nil {
			return
		}
		// Answers resolved inside the callee, minus transparency.
		st.supStore = append(st.supStore, EdgeSupplier{Pred: exit, Query: s.Qsn,
			Mask: maskAll &^ AnsTrans, FromExit: true})
		// Answers flowing across the transparent paths: the entry queries
		// continued at the call node.
		callNode := r.p.Node(call)
		en := r.p.EntrySucc(callNode).ID
		for _, qo := range s.EntriesAt(en) {
			if cq := r.substEntryLookup(qo, callNode, q.Owner); cq != nil {
				st.supStore = append(st.supStore, EdgeSupplier{Pred: call, Query: cq, Mask: maskAll})
			}
		}

	default:
		out := r.transfer(n, q)
		if out.resolved {
			// Resolved pairs never reach appendSuppliersOf.
			return
		}
		for _, m := range n.Preds {
			st.supStore = append(st.supStore, EdgeSupplier{Pred: m, Query: out.next, Mask: maskAll})
		}
	}
}

// substEntryLookup is substEntry without interning: it returns nil when the
// substituted query does not exist (possible only after truncation).
func (r *run) substEntryLookup(q *Query, call *ir.Node, owner *SNE) *Query {
	v := r.p.Vars[q.Var]
	if v.IsGlobal() {
		return r.lookupQuery(q.Var, q.P, owner)
	}
	for i, f := range r.p.Procs[call.Callee].Formals {
		if f == q.Var {
			return r.lookupQuery(call.Args[i], q.P, owner)
		}
	}
	return nil
}

// DuplicationEstimate returns the upper bound on the number of new nodes
// that must be created to isolate the correlated paths of this
// conditional: a node hosting k answers for a query must be split k-ways,
// and the copies needed for multiple queries multiply (paper §3.1). All
// ICFG nodes are counted, including the synthetic assert/join nodes this
// implementation materializes, since splitting duplicates them too; the
// estimate saturates at a large cap to avoid overflow on cross products.
func (r *Result) DuplicationEstimate(p *ir.Program) int {
	// estCap saturates the estimate (deliberately not named cap: a local
	// `cap` would shadow the builtin for the whole function body).
	const estCap = 1 << 30
	st := r.st
	est := 0
	for _, n := range st.visited {
		if p.Node(n) == nil {
			continue
		}
		copies := 1
		for _, pid := range st.nodePair[n] {
			if c := st.pairAns[pid].Count(); c > 1 {
				copies *= c
				if copies > estCap {
					copies = estCap
					break
				}
			}
		}
		if copies > 1 {
			est += copies - 1
		}
		if est > estCap {
			return estCap
		}
	}
	return est
}

// EstimatedBenefit estimates the number of dynamic instances of the
// conditional whose outcome is decided, from the execution counts of the
// nodes where queries resolved TRUE or FALSE (the paper's Figure 10
// estimate).
func (r *Result) EstimatedBenefit(execCount map[ir.NodeID]int64) int64 {
	st := r.st
	var total int64
	for pid := range st.pairNode {
		if st.pairResolved[pid] && st.pairRes[pid]&(AnsTrue|AnsFalse) != 0 {
			total += execCount[st.pairNode[pid]]
		}
	}
	return total
}

// ApproxBytes estimates the memory consumed by the analysis structures
// (queries, pairs, summary node entries), for the Table 2 memory column.
// The per-entry constants mirror what the seed's map-based representation
// charged, so the Table 2 memory column stays comparable across versions.
func (r *Result) ApproxBytes() int64 {
	st := r.st
	var b int64
	b += int64(len(st.queries)) * 48
	b += int64(r.PairsRaised) * 40 // raised set + worklist entries
	resolved := 0
	for pid := range st.pairNode {
		if st.pairResolved[pid] {
			resolved++
		}
	}
	b += int64(resolved) * 24
	b += int64(len(st.pairNode)) * 24
	for _, s := range st.snes {
		b += 64
		b += int64(len(s.Waiters)) * 40
		for i := range s.entries {
			b += 16 + int64(len(s.entries[i].qs))*8
		}
	}
	return b
}
