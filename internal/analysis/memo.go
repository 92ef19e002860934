package analysis

import (
	"sort"
	"sync"
	"unsafe"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Summary-node memoization.
//
// The closure computed for a summary node entry — the set of (node, query)
// pairs raised on behalf of the SNE's summary query, their resolutions, and
// the entry nodes the query reached — depends only on the program and on the
// SNE's identity (exit node + query content). It is independent of which
// conditional demanded it. Different conditionals in the same program
// routinely cross the same call sites with the same query contents (the
// paper's Figure 8 programs re-derive the same summaries for every
// elimination candidate), so the driver re-propagates identical closures
// over and over.
//
// A SummaryMemo records each completed closure keyed by (exit, content) and
// replays it into later runs: the replayed pairs are interned and resolved
// exactly as a fresh propagation would have left them, and each replayed
// pair counts as one pair raised and one pair processed, so a replayed
// analysis is pair-for-pair identical to a fresh one — same answers, same
// supplier structure, same counters. Only closures from untruncated runs
// are recorded (a truncated closure is incomplete and must not stand in for
// a complete one).
//
// Invalidation contract: a record lists the nodes its closure consulted
// (`touched`) — the nodes its pairs sit on, the call/exit/entry linkage
// nodes crossed at nested call sites, and, transitively, everything its
// nested summaries touched. After mutating the program the owner must drop
// every record whose touched set intersects the modified region; the
// optimization driver does this once per round via Commit(dirty), using the
// same dirty set that decides which conditionals to re-analyze. Records
// pending since the last Commit are not replayed from (the driver's workers
// analyze concurrently against a frozen per-round view, which keeps results
// independent of worker count and scheduling); an Analyzer created with New
// owns an auto-committing memo instead, appropriate for serial use on an
// unchanging program.
//
// The contract guarantees a structural invariant the replay path relies on:
// a committed record's nested summaries are always themselves committed.
// Records recorded in the same run commit or die together (the parent's
// touched set contains each nested record's), and two committed records for
// the same key on the same program revision describe the same closure, so
// deleting a nested record always deletes its parents too.
type SummaryMemo struct {
	mu         sync.RWMutex
	autoCommit bool
	committed  map[memoKey]*memoRecord
	pending    []*memoRecord
	// roots holds the committed root-closure records: the top-level
	// (owner-less) part of one conditional's analysis, cached across apply
	// rounds under the same commit/invalidation discipline as the summary
	// records. pendingRoots stages them between Commits. See the
	// root-record commentary further down.
	roots        map[rootKey]*rootRecord
	pendingRoots []*rootRecord
	// pristine snapshots the records staged before the first Commit: they
	// were computed against the unmodified input program, so they are the
	// only records safe to persist and replay into a fresh compile of the
	// same program (later rounds reference restructure-created nodes). See
	// ExportPristine in persist.go. Root records are process-local and
	// never persisted (their rolled-back payload is cheap to recompute and
	// their validity is bound to this process's apply sequence).
	pristine []*memoRecord
	frozen   bool
	hits     int64
	// invalidated counts cached subtrees (summary and root records) that a
	// Commit dropped because their recorded region intersected the round's
	// dirty set — the driver's SubtreesInvalidated counter.
	invalidated int64
	bytes       int64
}

// memoKey identifies a summary node entry across runs: the procedure exit
// and the summary query's content.
type memoKey struct {
	exit ir.NodeID
	v    ir.VarID
	op   pred.Op
	c    int64
}

// memoPair is one recorded closure pair, in raise order. Beyond the
// propagation-phase resolution, records made by this process also carry the
// pair's rolled-back answer set and (for unresolved pairs) its supplier
// range in the record's supplier arena, so replay can restore the complete
// post-rollback state of the closure and the global rollback can skip it.
type memoPair struct {
	node     ir.NodeID
	v        ir.VarID
	p        pred.Pred
	resolved bool
	ans      AnswerSet
	rolled   AnswerSet
	supOff   int32
	supLen   int32
}

// memoSupplier is one recorded edge supplier in portable form: the supplying
// predecessor, the supplier query's content, and which closure owns that
// query — ownerRef 0 is the record's own closure (the SNE itself, or the
// top level for root records) and k>0 is the record's k-th nested/dep
// summary (whose Qsn is the exit supplier's query).
type memoSupplier struct {
	pred     ir.NodeID
	v        ir.VarID
	p        pred.Pred
	ownerRef int32
	mask     AnswerSet
	fromExit bool
}

// memoArrival is one summary query that reached a procedure entry.
type memoArrival struct {
	entry ir.NodeID
	v     ir.VarID
	p     pred.Pred
}

type memoRecord struct {
	key      memoKey
	pairs    []memoPair
	arrivals []memoArrival
	nested   []memoKey      // keys of the summaries this closure waited on
	sups     []memoSupplier // supplier arena referenced by pairs' supOff/supLen
	touched  []ir.NodeID    // sorted invalidation set
	// hasRolled marks records whose pairs carry rolled-back answers and
	// suppliers, letting replay restore the closure's complete post-rollback
	// state; records injected from a persisted store lack them (the wire
	// format carries only the propagation closure) and are replayed with a
	// fresh rollback instead.
	hasRolled bool
	// injected marks records loaded from a persisted store (Inject) rather
	// than computed by this process; they are excluded from ExportPristine
	// so a warm process never re-persists what it read.
	injected bool
}

// Root-closure records.
//
// The driver requeues a conditional whenever an applied restructuring dirties
// any node its analysis visited. Before root records, a requeue discarded the
// entire result and the next round re-derived everything from scratch, even
// though the dirty region is usually confined to one procedure's interior:
// the summary memo salvages the untouched callee closures, but the top-level
// (owner-less) part of the analysis — typically the caller-side bulk of a
// deep interprocedural query — was re-propagated every time.
//
// A rootRecord caches exactly that top-level part, keyed by the conditional
// and its predicate content. Its `touched` set holds only the nodes the
// top-level closure itself consulted (its pair nodes plus the call/exit/entry
// linkage nodes crossed at traversed call sites) — NOT the interiors of the
// summaries it waited on. That decomposition is the point: a requeue implies
// some visited node is dirty, so a record whose validity covered the whole
// visited region would never survive its own requeue. With the split, a
// restructuring inside a callee invalidates that callee's summary records
// while the conditional's root record stays committed, and the next round
// replays the top level, re-derives (or memo-replays) the summaries, and
// revalidates the stitching:
//
//   - every MOD-based traverse/skip decision the top level made must decide
//     the same way against the current program (MOD sets can shrink when
//     restructuring kills nodes, flipping a decision without dirtying any
//     node the record touched);
//   - every summary the top level waited on must reproduce the recorded
//     entry-arrival set (arrivals decide which continuation queries the top
//     level raises, so a changed arrival set changes the top closure).
//
// If validation fails the record is simply not used and the analysis runs
// fresh — replay is an optimization, never a requirement. When additionally
// every dep summary was itself restored with rolled-back answers and its
// exit answer matches the recorded one, the top level's rolled-back answers
// and suppliers are restored too and the global rollback skips the whole
// result (the near-constant-time repeat-query path).
type rootKey struct {
	cond ir.NodeID
	v    ir.VarID
	op   pred.Op
	c    int64
}

// rootDep records one summary the top-level closure waited on, with the
// entry-arrival set (sorted) replay must revalidate and the rolled-back
// answer at the summary's exit that gates answer restoration.
type rootDep struct {
	key      memoKey
	arrivals []memoArrival
	exitAns  AnswerSet
}

// modCheck records one MOD-based traverse/skip decision of the top-level
// closure; replay re-asks mustTraverse and falls back to a fresh analysis on
// any flip.
type modCheck struct {
	callee int32
	v      ir.VarID
	viaRet bool
	must   bool
}

type rootRecord struct {
	key       rootKey
	pairs     []memoPair
	sups      []memoSupplier
	deps      []rootDep
	modChecks []modCheck
	touched   []ir.NodeID // sorted: top-level pair nodes + linkage nodes only
	hasRolled bool
}

func newSummaryMemo(autoCommit bool) *SummaryMemo {
	return &SummaryMemo{autoCommit: autoCommit,
		committed: make(map[memoKey]*memoRecord),
		roots:     make(map[rootKey]*rootRecord)}
}

// NewSummaryMemo creates an empty memo with caller-managed commit points,
// for sharing across the analyzers a driver creates round after round.
func NewSummaryMemo() *SummaryMemo { return newSummaryMemo(false) }

func (m *SummaryMemo) lookup(k memoKey) *memoRecord {
	m.mu.RLock()
	rec := m.committed[k]
	m.mu.RUnlock()
	return rec
}

// lookupRoot returns the committed root record for a conditional, or nil.
// Like summary lookups it reads only the committed (round-frozen) view, so
// concurrent driver workers see the same records regardless of scheduling.
func (m *SummaryMemo) lookupRoot(k rootKey) *rootRecord {
	m.mu.RLock()
	rr := m.roots[k]
	m.mu.RUnlock()
	return rr
}

// recordRoot accepts one completed conditional's root record, published
// immediately for auto-committing memos and staged until Commit otherwise.
func (m *SummaryMemo) recordRoot(rr *rootRecord) {
	m.mu.Lock()
	if m.autoCommit {
		if _, ok := m.roots[rr.key]; !ok {
			m.roots[rr.key] = rr
			m.bytes += rr.footprint()
		}
	} else {
		m.pendingRoots = append(m.pendingRoots, rr)
	}
	m.mu.Unlock()
}

func (m *SummaryMemo) hit() {
	m.mu.Lock()
	m.hits++
	m.mu.Unlock()
}

// record accepts the records of one completed run. Auto-committing memos
// publish them immediately (first record for a key wins; concurrent runs on
// the same unmodified program produce identical closures, so the race is
// benign); otherwise they stage until the next Commit.
func (m *SummaryMemo) record(recs []*memoRecord) {
	if len(recs) == 0 {
		return
	}
	m.mu.Lock()
	if m.autoCommit {
		for _, rec := range recs {
			if _, ok := m.committed[rec.key]; ok {
				continue
			}
			m.committed[rec.key] = rec
			m.bytes += rec.footprint()
		}
	} else {
		m.pending = append(m.pending, recs...)
	}
	m.mu.Unlock()
}

// Commit publishes the records staged since the last Commit and drops every
// record — staged or committed — whose touched set intersects dirty (the
// nodes modified since those records were made). The driver calls it once
// per optimization round, after applying that round's transformations.
func (m *SummaryMemo) Commit(dirty map[ir.NodeID]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.frozen {
		// First Commit: everything staged so far was computed against the
		// pristine input program (the dirty set may invalidate some of it
		// for THIS run's mutated program, but not for a fresh compile of the
		// same source). Injected records came from a store, not this run.
		m.frozen = true
		for _, rec := range m.pending {
			if !rec.injected {
				m.pristine = append(m.pristine, rec)
			}
		}
	}
	if len(dirty) > 0 {
		for k, rec := range m.committed {
			if rec.touchesDirty(dirty) {
				delete(m.committed, k)
				m.bytes -= rec.footprint()
				m.invalidated++
			}
		}
		for k, rr := range m.roots {
			if touchesDirtySet(rr.touched, dirty) {
				delete(m.roots, k)
				m.bytes -= rr.footprint()
				m.invalidated++
			}
		}
	}
	for _, rec := range m.pending {
		if _, ok := m.committed[rec.key]; ok {
			continue
		}
		if len(dirty) > 0 && rec.touchesDirty(dirty) {
			continue
		}
		m.committed[rec.key] = rec
		m.bytes += rec.footprint()
	}
	m.pending = m.pending[:0]
	for _, rr := range m.pendingRoots {
		if len(dirty) > 0 && touchesDirtySet(rr.touched, dirty) {
			continue
		}
		// Last-wins: a fresh record for a conditional supersedes a committed
		// one. A root record is only re-recorded after its replay failed (a
		// dep summary drifted), so keeping the old record would pin the
		// stale version and force a failed revalidation every round.
		if old, ok := m.roots[rr.key]; ok {
			m.bytes -= old.footprint()
		}
		m.roots[rr.key] = rr
		m.bytes += rr.footprint()
	}
	m.pendingRoots = m.pendingRoots[:0]
}

// Entries returns the number of committed records.
func (m *SummaryMemo) Entries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.committed)
}

// RootEntries returns the number of committed root records.
func (m *SummaryMemo) RootEntries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.roots)
}

// Invalidated returns the number of cached subtrees (summary and root
// records) dropped by Commits because their recorded region intersected a
// dirty set.
func (m *SummaryMemo) Invalidated() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.invalidated
}

// Hits returns the number of summary replays served so far.
func (m *SummaryMemo) Hits() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hits
}

// Bytes estimates the memory held by the committed records.
func (m *SummaryMemo) Bytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

func (rec *memoRecord) footprint() int64 {
	b := int64(unsafe.Sizeof(*rec))
	b += int64(len(rec.pairs)) * int64(unsafe.Sizeof(memoPair{}))
	b += int64(len(rec.arrivals)) * int64(unsafe.Sizeof(memoArrival{}))
	b += int64(len(rec.nested)) * int64(unsafe.Sizeof(memoKey{}))
	b += int64(len(rec.sups)) * int64(unsafe.Sizeof(memoSupplier{}))
	b += int64(len(rec.touched)) * int64(unsafe.Sizeof(ir.NodeID(0)))
	b += mapEntryFootprint(int64(unsafe.Sizeof(memoKey{})) + int64(unsafe.Sizeof((*memoRecord)(nil))))
	return b
}

func (rr *rootRecord) footprint() int64 {
	b := int64(unsafe.Sizeof(*rr))
	b += int64(len(rr.pairs)) * int64(unsafe.Sizeof(memoPair{}))
	b += int64(len(rr.sups)) * int64(unsafe.Sizeof(memoSupplier{}))
	b += int64(len(rr.modChecks)) * int64(unsafe.Sizeof(modCheck{}))
	b += int64(len(rr.touched)) * int64(unsafe.Sizeof(ir.NodeID(0)))
	for i := range rr.deps {
		b += int64(unsafe.Sizeof(rootDep{}))
		b += int64(len(rr.deps[i].arrivals)) * int64(unsafe.Sizeof(memoArrival{}))
	}
	b += mapEntryFootprint(int64(unsafe.Sizeof(rootKey{})) + int64(unsafe.Sizeof((*rootRecord)(nil))))
	return b
}

func (rec *memoRecord) touchesDirty(dirty map[ir.NodeID]bool) bool {
	return touchesDirtySet(rec.touched, dirty)
}

func touchesDirtySet(touched []ir.NodeID, dirty map[ir.NodeID]bool) bool {
	for _, n := range touched {
		if dirty[n] {
			return true
		}
	}
	return false
}

// replaySNE reconstructs a summary node entry from a memo record, exactly
// as a fresh propagation would have left it: the closure pairs are interned
// and resolved in recorded raise order (each counting as raised and
// processed), the entry arrivals are re-registered, and nested summaries
// are replayed first. Returns nil — and the caller computes fresh — if a
// nested summary is unavailable; the commit contract makes that
// unreachable, but a fresh computation is always a correct substitute.
func (r *run) replaySNE(rec *memoRecord) *SNE {
	st := r.st
	for _, nk := range rec.nested {
		if st.findSNE(nk.exit, nk.v, pred.Pred{Op: nk.op, C: nk.c}) != nil {
			continue
		}
		if r.a.memo.lookup(nk) == nil {
			return nil
		}
	}
	s := st.newSNE(rec.key.exit)
	s.replayed = true
	s.rec = rec
	s.Qsn = st.intern(rec.key.v, pred.Pred{Op: rec.key.op, C: rec.key.c}, s)
	for _, nk := range rec.nested {
		np := pred.Pred{Op: nk.op, C: nk.c}
		if st.findSNE(nk.exit, nk.v, np) != nil {
			continue
		}
		// Registered-before-recursing (s is already in st.snes), so mutually
		// recursive summaries terminate: the recursive replay finds s.
		if nrec := r.a.memo.lookup(nk); nrec != nil && r.replaySNE(nrec) != nil {
			continue
		}
		// Degraded path (unreachable under the commit contract): raise the
		// nested summary for fresh propagation.
		ns := st.newSNE(nk.exit)
		ns.Qsn = st.intern(nk.v, np, ns)
		r.raise(nk.exit, ns.Qsn)
	}
	firstPid := int32(len(st.pairNode))
	for i := range rec.pairs {
		mp := &rec.pairs[i]
		q := st.intern(mp.v, mp.p, s)
		pid := st.addPair(mp.node, q)
		if mp.resolved {
			st.resolvePair(pid, mp.ans)
		}
		// A replayed pair stands for one raise and one processing step of
		// the recorded run, keeping the cost counters — and with them the
		// termination-limit behavior of callers that bound PairsProcessed —
		// identical to a fresh computation.
		r.res.PairsRaised++
		r.res.PairsProcessed++
	}
	for i := range rec.arrivals {
		ar := &rec.arrivals[i]
		if q := st.lookupIntern(ar.v, ar.p, s); q != nil {
			s.addEntry(ar.entry, q)
		}
	}
	if rec.hasRolled {
		r.restoreRolled(rec.pairs, rec.sups, firstPid, s, rec.nested)
	}
	r.res.MemoHits++
	r.res.QueriesReused += len(rec.pairs)
	r.a.memo.hit()
	return s
}

// restoreRolled restores the post-rollback state of a replayed closure: each
// pair's rolled-back answer set and, for unresolved pairs, its recorded
// supplier list, appended to the supplier arena. Restored pairs are marked
// final — rollback seeds them as settled sources and never recomputes them
// (see rollback.go). pairs[i] corresponds to dense pair ID firstPid+i (the
// caller interned them contiguously); own is the closure's owner (nil for
// the top level) and nested resolves supplier ownerRefs k>0 to the k-th
// nested summary's key. Restoration is all-or-nothing per closure: if any
// supplier reference fails to resolve (impossible for records made by this
// process, defensive otherwise), the pairs stay non-final and rollback
// recomputes them.
func (r *run) restoreRolled(pairs []memoPair, sups []memoSupplier, firstPid int32, own *SNE, nested []memoKey) {
	st := r.st
	// Resolve supplier queries first, so failure leaves no pair half-final.
	owners := make([]*SNE, 1+len(nested))
	owners[0] = own
	for i, nk := range nested {
		ns := st.findSNE(nk.exit, nk.v, pred.Pred{Op: nk.op, C: nk.c})
		if ns == nil {
			return
		}
		owners[1+i] = ns
	}
	supQ := make([]*Query, len(sups))
	for i := range sups {
		ms := &sups[i]
		if int(ms.ownerRef) >= len(owners) {
			return
		}
		q := st.lookupIntern(ms.v, ms.p, owners[ms.ownerRef])
		if q == nil {
			return
		}
		supQ[i] = q
	}
	for i := range pairs {
		mp := &pairs[i]
		pid := firstPid + int32(i)
		st.pairAns[pid] = mp.rolled
		st.pairFinal[pid] = true
		if mp.resolved || mp.supLen == 0 {
			continue
		}
		off := int32(len(st.supStore))
		for j := mp.supOff; j < mp.supOff+mp.supLen; j++ {
			ms := &sups[j]
			st.supStore = append(st.supStore, EdgeSupplier{
				Pred: ms.pred, Query: supQ[j], Mask: ms.mask, FromExit: ms.fromExit})
		}
		st.pairSupOff[pid] = off
		st.pairSupLen[pid] = mp.supLen
	}
}

// recordSNEs extracts memo records for every summary computed fresh in this
// (untruncated) run and hands them to the memo.
func (r *run) recordSNEs() {
	st := r.st
	recs := make([]*memoRecord, len(st.snes))
	any := false
	for i, s := range st.snes {
		if s.replayed || s.Qsn == nil {
			continue
		}
		recs[i] = &memoRecord{key: memoKey{exit: s.Exit, v: s.Qsn.Var, op: s.Qsn.P.Op, c: s.Qsn.P.C}}
		any = true
	}
	if !any {
		return
	}
	for _, rec := range recs {
		if rec != nil {
			rec.hasRolled = true
		}
	}
	// One pass over the pairs assigns each SNE its closure, in raise order,
	// together with the pair's rolled-back answer and supplier list (the
	// complete post-rollback state replay restores).
	for pid := range st.pairNode {
		q := st.queries[st.pairQ[pid]]
		if q.Owner == nil || recs[q.Owner.ID] == nil {
			continue
		}
		rec := recs[q.Owner.ID]
		mp := memoPair{node: st.pairNode[pid], v: q.Var, p: q.P, rolled: st.pairAns[pid]}
		if st.pairResolved[pid] {
			mp.resolved, mp.ans = true, st.pairRes[pid]
		} else {
			mp.supOff = int32(len(rec.sups))
			if !appendRecSuppliers(&rec.sups, st, int32(pid), q.Owner, q.Owner.deps) {
				rec.hasRolled = false
			}
			mp.supLen = int32(len(rec.sups)) - mp.supOff
		}
		rec.pairs = append(rec.pairs, mp)
	}
	// Arrivals, nested keys, and the direct invalidation sets. Query
	// contents are copied out — records must not retain pooled *Query or
	// *SNE pointers.
	touched := make([]map[ir.NodeID]struct{}, len(st.snes))
	for i, s := range st.snes {
		rec := recs[i]
		if rec == nil {
			continue
		}
		for _, e := range s.entries {
			for _, q := range e.qs {
				rec.arrivals = append(rec.arrivals, memoArrival{entry: e.entry, v: q.Var, p: q.P})
			}
		}
		for _, d := range s.deps {
			rec.nested = append(rec.nested, memoKey{exit: d.Exit, v: d.Qsn.Var, op: d.Qsn.P.Op, c: d.Qsn.P.C})
		}
		set := make(map[ir.NodeID]struct{}, len(rec.pairs)+len(s.linkNodes))
		for _, mp := range rec.pairs {
			set[mp.node] = struct{}{}
		}
		for _, ln := range s.linkNodes {
			set[ln] = struct{}{}
		}
		if s.replayedDepTouched(set) {
			// replayed deps contributed already; nothing else to do here
		}
		touched[i] = set
	}
	// Transitive closure over fresh deps (iterate to a fixed point; SNE
	// dependency graphs are tiny and almost always acyclic).
	for changed := true; changed; {
		changed = false
		for i, s := range st.snes {
			if recs[i] == nil {
				continue
			}
			set := touched[i]
			before := len(set)
			for _, d := range s.deps {
				if d.replayed {
					continue // folded in by replayedDepTouched
				}
				if ds := touched[d.ID]; ds != nil {
					for n := range ds {
						set[n] = struct{}{}
					}
				}
			}
			if len(set) != before {
				changed = true
			}
		}
	}
	out := recs[:0]
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		rec.touched = make([]ir.NodeID, 0, len(touched[i]))
		for n := range touched[i] {
			rec.touched = append(rec.touched, n)
		}
		sort.Slice(rec.touched, func(a, b int) bool { return rec.touched[a] < rec.touched[b] })
		out = append(out, rec)
	}
	r.a.memo.record(out)
}

// appendRecSuppliers encodes the supplier list of one unresolved pair into a
// record's supplier arena. own is the closure the record describes (nil for
// the top level); deps are its direct nested summaries, in the same order as
// the record's nested/dep key list, so ownerRef k+1 round-trips through
// restoreRolled. Returns false when a supplier query's owner is neither —
// such a record cannot restore rolled state and is replayed with a fresh
// rollback instead.
func appendRecSuppliers(dst *[]memoSupplier, st *state, pid int32, own *SNE, deps []*SNE) bool {
	off, ln := st.pairSupOff[pid], st.pairSupLen[pid]
	for i := off; i < off+ln; i++ {
		es := &st.supStore[i]
		ref := int32(-1)
		if es.Query.Owner == own {
			ref = 0
		} else {
			for k, d := range deps {
				if es.Query.Owner == d {
					ref = int32(k + 1)
					break
				}
			}
		}
		if ref < 0 {
			return false
		}
		*dst = append(*dst, memoSupplier{pred: es.Pred, v: es.Query.Var, p: es.Query.P,
			ownerRef: ref, mask: es.Mask, fromExit: es.FromExit})
	}
	return true
}

// replayedDepTouched folds the (already final) touched sets of replayed
// dependencies into set, returning whether it added anything.
func (s *SNE) replayedDepTouched(set map[ir.NodeID]struct{}) bool {
	added := false
	for _, d := range s.deps {
		if !d.replayed {
			continue
		}
		for _, n := range d.rec.touched {
			if _, ok := set[n]; !ok {
				set[n] = struct{}{}
				added = true
			}
		}
	}
	return added
}

// recordRoot extracts the root record of a completed, untruncated, fresh run:
// the top-level closure with its rolled-back payload, the summaries the top
// level waited on (with arrival sets and exit answers), the MOD decisions it
// took, and the top-level invalidation set.
func (r *run) recordRoot(b ir.NodeID, v ir.VarID, p pred.Pred) {
	st := r.st
	rr := &rootRecord{key: rootKey{cond: b, v: v, op: p.Op, c: p.C}, hasRolled: true}
	set := make(map[ir.NodeID]struct{}, 64)
	for pid := range st.pairNode {
		q := st.queries[st.pairQ[pid]]
		if q.Owner != nil {
			continue
		}
		mp := memoPair{node: st.pairNode[pid], v: q.Var, p: q.P, rolled: st.pairAns[pid]}
		if st.pairResolved[pid] {
			mp.resolved, mp.ans = true, st.pairRes[pid]
		} else {
			mp.supOff = int32(len(rr.sups))
			if !appendRecSuppliers(&rr.sups, st, int32(pid), nil, r.topDeps) {
				rr.hasRolled = false
			}
			mp.supLen = int32(len(rr.sups)) - mp.supOff
		}
		rr.pairs = append(rr.pairs, mp)
		set[st.pairNode[pid]] = struct{}{}
	}
	for _, ln := range r.topLinks {
		set[ln] = struct{}{}
	}
	for _, s := range r.topDeps {
		d := rootDep{
			key:      memoKey{exit: s.Exit, v: s.Qsn.Var, op: s.Qsn.P.Op, c: s.Qsn.P.C},
			arrivals: sortedArrivals(s),
		}
		if pid := st.findPair(s.Exit, s.Qsn); pid >= 0 {
			d.exitAns = st.pairAns[pid]
		}
		rr.deps = append(rr.deps, d)
	}
	rr.modChecks = append([]modCheck(nil), r.topModChecks...)
	rr.touched = make([]ir.NodeID, 0, len(set))
	for n := range set {
		rr.touched = append(rr.touched, n)
	}
	sort.Slice(rr.touched, func(a, b int) bool { return rr.touched[a] < rr.touched[b] })
	r.a.memo.recordRoot(rr)
}

// sortedArrivals flattens a summary's entry arrivals into a content-sorted
// list, the canonical form root records store and replay compares against.
// Arrival sets — not orders — decide which continuation queries a waiting
// top-level pair raises, so set equality is the right validity test.
func sortedArrivals(s *SNE) []memoArrival {
	var out []memoArrival
	for i := range s.entries {
		e := &s.entries[i]
		for _, q := range e.qs {
			out = append(out, memoArrival{entry: e.entry, v: q.Var, p: q.P})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.entry != y.entry {
			return x.entry < y.entry
		}
		if x.v != y.v {
			return x.v < y.v
		}
		if x.p.Op != y.p.Op {
			return x.p.Op < y.p.Op
		}
		return x.p.C < y.p.C
	})
	return out
}

// arrivalsMatch reports whether a summary's current arrival set equals the
// recorded one.
func arrivalsMatch(s *SNE, want []memoArrival) bool {
	got := sortedArrivals(s)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// replayRoot reconstructs one conditional's analysis from its root record.
// The record's own region is unchanged (the Commit contract dropped it
// otherwise); what replay must revalidate is the stitching to the summaries
// the top level waited on, which live outside the record's region by design:
//
//  1. every recorded MOD traverse/skip decision must decide the same way
//     against the current program;
//  2. each dep summary is re-derived — memo replay when its record survived,
//     fresh propagation when it was invalidated — and must reproduce the
//     recorded arrival set;
//  3. when every dep was restored with rolled-back answers and its exit
//     answer matches the recorded one, the top level's rolled-back payload
//     is restored too and rollback skips the whole closure.
//
// On any mismatch replayRoot returns false and the caller discards the
// partial state and analyzes fresh — a stale record can never be served.
func (r *run) replayRoot(rr *rootRecord) bool {
	st := r.st
	for _, mc := range rr.modChecks {
		if r.mustTraverse(int(mc.callee), mc.v, mc.viaRet) != mc.must {
			return false
		}
	}
	depSNEs := make([]*SNE, len(rr.deps))
	for i := range rr.deps {
		k := rr.deps[i].key
		depSNEs[i] = r.getSNE(k.exit, k.v, pred.Pred{Op: k.op, C: k.c})
	}
	// Fresh deps propagate to quiescence here; replayed ones left no work.
	r.propagate()
	if r.res.Truncated {
		return false
	}
	limit := r.a.Opts.TerminationLimit
	if limit == 0 && r.a.Opts.ArithSubst {
		limit = hardLimit
	}
	if limit > 0 && r.res.PairsProcessed+len(rr.pairs) > limit {
		// A fresh run would hit the termination limit; let it, so replayed
		// and from-scratch results truncate identically.
		return false
	}
	for i := range rr.deps {
		if !arrivalsMatch(depSNEs[i], rr.deps[i].arrivals) {
			return false
		}
	}
	final := rr.hasRolled
	if final {
		for i := range rr.deps {
			s := depSNEs[i]
			if !s.replayed || s.rec == nil || !s.rec.hasRolled {
				final = false
				break
			}
			pid := st.findPair(s.Exit, s.Qsn)
			if pid < 0 || st.pairAns[pid] != rr.deps[i].exitAns {
				final = false
				break
			}
		}
	}
	firstPid := int32(len(st.pairNode))
	for i := range rr.pairs {
		mp := &rr.pairs[i]
		q := st.intern(mp.v, mp.p, nil)
		pid := st.addPair(mp.node, q)
		if mp.resolved {
			st.resolvePair(pid, mp.ans)
		}
		r.res.PairsRaised++
		r.res.PairsProcessed++
	}
	if final {
		nested := make([]memoKey, len(rr.deps))
		for i := range rr.deps {
			nested[i] = rr.deps[i].key
		}
		r.restoreRolled(rr.pairs, rr.sups, firstPid, nil, nested)
	}
	r.res.QueriesReused += len(rr.pairs)
	r.res.Root = st.lookupIntern(rr.key.v, pred.Pred{Op: rr.key.op, C: rr.key.c}, nil)
	return r.res.Root != nil
}
