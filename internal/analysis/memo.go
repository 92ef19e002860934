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
// replays it into later runs: the replayed pairs are interned together with
// their propagation-phase resolutions, and each replayed pair counts as one
// pair raised and one pair processed. Everything else — rolled-back answers
// and supplier structure — the run's rollback recomputes, exactly as for a
// fresh propagation, so a replayed analysis is pair-for-pair identical to a
// fresh one: same answers, same supplier structure, same counters. Records
// made by this process and records injected from a store replay the same
// way. Only closures from untruncated runs are recorded (a truncated closure
// is incomplete and must not stand in for a complete one).
//
// Invalidation contract: a record lists the nodes its closure consulted
// (`touched`) — the nodes its pairs sit on, the call/exit/entry linkage
// nodes crossed at nested call sites, and, transitively, everything its
// nested summaries touched. After mutating the program the owner must drop
// every record whose touched set intersects the modified region; the
// optimization driver does this once per round via Commit(dirty), using the
// same dirty bitset that decides which conditionals to re-analyze. Records
// pending since the last Commit are not replayed from (the driver's workers
// analyze concurrently against a frozen per-round view, which keeps results
// independent of worker count and scheduling).
//
// The contract guarantees a structural invariant the replay path relies on:
// a committed record's nested summaries are always themselves committed.
// Records recorded in the same run commit or die together (the parent's
// touched set contains each nested record's), and two committed records for
// the same key on the same program revision describe the same closure, so
// deleting a nested record always deletes its parents too.
type SummaryMemo struct {
	mu        sync.RWMutex
	committed map[memoKey]*memoRecord
	pending   []*memoRecord
	// pristine snapshots the records staged before the first Commit: they
	// were computed against the unmodified input program, so they are the
	// only records safe to persist and replay into a fresh compile of the
	// same program (later rounds reference restructure-created nodes). See
	// ExportPristine in persist.go.
	pristine []*memoRecord
	frozen   bool
	hits     int64
	// invalidated counts summary records that a Commit dropped because their
	// recorded region intersected the round's dirty set — the driver's
	// SubtreesInvalidated counter.
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

// memoPair is one recorded closure pair, in raise order, with its
// propagation-phase resolution.
type memoPair struct {
	node     ir.NodeID
	v        ir.VarID
	p        pred.Pred
	resolved bool
	ans      AnswerSet
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
	nested   []memoKey   // keys of the summaries this closure waited on
	touched  []ir.NodeID // sorted invalidation set
}

// NewSummaryMemo creates an empty memo with caller-managed commit points,
// for sharing across the analyzers a driver creates round after round.
func NewSummaryMemo() *SummaryMemo {
	return &SummaryMemo{committed: make(map[memoKey]*memoRecord)}
}

func (m *SummaryMemo) lookup(k memoKey) *memoRecord {
	m.mu.RLock()
	rec := m.committed[k]
	m.mu.RUnlock()
	return rec
}

func (m *SummaryMemo) hit() {
	m.mu.Lock()
	m.hits++
	m.mu.Unlock()
}

// record stages the records of one completed run until the next Commit.
func (m *SummaryMemo) record(recs []*memoRecord) {
	if len(recs) == 0 {
		return
	}
	m.mu.Lock()
	m.pending = append(m.pending, recs...)
	m.mu.Unlock()
}

// Commit publishes the records staged since the last Commit and drops every
// record — staged or committed — whose touched set intersects dirty, a
// bitset over node IDs of the nodes modified since those records were made
// (bit id&63 of word id>>6; IDs past its end count as clean). The driver
// calls it once per optimization round, after applying that round's
// transformations.
func (m *SummaryMemo) Commit(dirty []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.frozen {
		// First Commit: everything staged so far was computed against the
		// pristine input program (the dirty set may invalidate some of it
		// for THIS run's mutated program, but not for a fresh compile of the
		// same source). Injected records are committed directly, never
		// staged, so a warm process never re-persists what it read.
		m.frozen = true
		m.pristine = append(m.pristine, m.pending...)
	}
	if len(dirty) > 0 {
		for k, rec := range m.committed {
			if rec.touchesDirty(dirty) {
				delete(m.committed, k)
				m.bytes -= rec.footprint()
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
}

// Entries returns the number of committed records.
func (m *SummaryMemo) Entries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.committed)
}

// Invalidated returns the number of records dropped by Commits because
// their recorded region intersected a dirty set.
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
	b += int64(len(rec.touched)) * int64(unsafe.Sizeof(ir.NodeID(0)))
	b += mapEntryFootprint(int64(unsafe.Sizeof(memoKey{})) + int64(unsafe.Sizeof((*memoRecord)(nil))))
	return b
}

// touchesDirty reports whether a node of the record's touched set is set in
// the dirty bitset. touched is sorted, so the scan stops at the first ID past
// the bitset.
func (rec *memoRecord) touchesDirty(dirty []uint64) bool {
	for _, n := range rec.touched {
		w := int(n >> 6)
		if w >= len(dirty) {
			return false
		}
		if dirty[w]&(1<<(uint(n)&63)) != 0 {
			return true
		}
	}
	return false
}

// replaySNE reconstructs a summary node entry from a memo record, exactly
// as a fresh propagation would have left it: the closure pairs are interned
// and resolved in recorded raise order (each counting as raised and
// processed), the entry arrivals are re-registered, and nested summaries
// are replayed first. Rollback then recomputes the closure's answers and
// suppliers like any other pairs'. Returns nil — and the caller computes
// fresh — if a nested summary has no committed record; the commit contract
// makes that unreachable, but a fresh computation is always a correct
// substitute.
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
		// Registered-before-recursing (s is already in st.snes), so mutually
		// recursive summaries terminate: the recursive replay finds s.
		r.getSNE(nk.exit, nk.v, pred.Pred{Op: nk.op, C: nk.c})
	}
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
	r.res.MemoHits++
	r.res.QueriesReused += len(rec.pairs)
	r.a.memo.hit()
	return s
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
	// One pass over the pairs assigns each SNE its closure, in raise order.
	for pid := range st.pairNode {
		q := st.queries[st.pairQ[pid]]
		if q.Owner == nil || recs[q.Owner.ID] == nil {
			continue
		}
		rec := recs[q.Owner.ID]
		mp := memoPair{node: st.pairNode[pid], v: q.Var, p: q.P}
		if st.pairResolved[pid] {
			mp.resolved, mp.ans = true, st.pairRes[pid]
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
		s.replayedDepTouched(set)
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

// replayedDepTouched folds the (already final) touched sets of replayed
// dependencies into set.
func (s *SNE) replayedDepTouched(set map[ir.NodeID]struct{}) {
	for _, d := range s.deps {
		if !d.replayed {
			continue
		}
		for _, n := range d.rec.touched {
			set[n] = struct{}{}
		}
	}
}
