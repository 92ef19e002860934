package analysis

import (
	"sort"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Portable summary records.
//
// A SummaryMemo's records are plain data — node IDs, var IDs, predicate
// contents — so they can be serialized and replayed into a later process
// working on the same program. The types below are the wire form: they carry
// exactly the fields replaySNE needs, with no pooled pointers. Node and var
// IDs are in the coordinate system of the program the records were computed
// against, so they replay only into that program (or a copy with the same
// numbering, such as a recompile of the same source). Inject validates every
// reference against the receiving program before accepting anything
// (verify-on-read: a corrupted or stale record is dropped, never replayed).

// PortableKey identifies a summary node entry: the procedure exit and the
// summary query's content.
type PortableKey struct {
	Exit ir.NodeID `json:"exit"`
	Var  ir.VarID  `json:"var"`
	Op   pred.Op   `json:"op"`
	C    int64     `json:"c"`
}

// PortablePair is one closure pair, in raise order.
type PortablePair struct {
	Node     ir.NodeID `json:"node"`
	Var      ir.VarID  `json:"var"`
	Op       pred.Op   `json:"op"`
	C        int64     `json:"c"`
	Resolved bool      `json:"resolved,omitempty"`
	Ans      AnswerSet `json:"ans,omitempty"`
}

// PortableArrival is one summary query that reached a procedure entry.
type PortableArrival struct {
	Entry ir.NodeID `json:"entry"`
	Var   ir.VarID  `json:"var"`
	Op    pred.Op   `json:"op"`
	C     int64     `json:"c"`
}

// PortableRecord is one summary closure in wire form.
type PortableRecord struct {
	Key      PortableKey       `json:"key"`
	Pairs    []PortablePair    `json:"pairs,omitempty"`
	Arrivals []PortableArrival `json:"arrivals,omitempty"`
	Nested   []PortableKey     `json:"nested,omitempty"`
	Touched  []ir.NodeID       `json:"touched,omitempty"`
}

// ExportPristine returns the memo's records that are valid for the pristine
// input program: records staged before the first Commit (later rounds
// compute closures against a restructured graph whose node IDs do not exist
// in a fresh compile of the same source). Records injected from a store are
// never staged, so they are never exported. The returned slices are deep
// copies.
func (m *SummaryMemo) ExportPristine() []PortableRecord {
	m.mu.RLock()
	defer m.mu.RUnlock()
	recs := m.pristine
	if !m.frozen {
		// No Commit yet: everything staged so far was computed against the
		// pristine program.
		recs = m.pending
	}
	out := make([]PortableRecord, 0, len(recs))
	seen := make(map[memoKey]bool, len(recs))
	for _, rec := range recs {
		// Concurrent round-1 runs can stage the same summary independently;
		// the closures are identical, so the first record stands for all.
		if seen[rec.key] {
			continue
		}
		seen[rec.key] = true
		out = append(out, portableFromRecord(rec))
	}
	// Deterministic order regardless of map iteration.
	sort.Slice(out, func(i, j int) bool { return out[i].Key.less(out[j].Key) })
	return out
}

func (k PortableKey) less(o PortableKey) bool {
	if k.Exit != o.Exit {
		return k.Exit < o.Exit
	}
	if k.Var != o.Var {
		return k.Var < o.Var
	}
	if k.Op != o.Op {
		return k.Op < o.Op
	}
	return k.C < o.C
}

func portableFromRecord(rec *memoRecord) PortableRecord {
	p := PortableRecord{
		Key:     PortableKey{Exit: rec.key.exit, Var: rec.key.v, Op: rec.key.op, C: rec.key.c},
		Touched: append([]ir.NodeID(nil), rec.touched...),
	}
	for _, mp := range rec.pairs {
		p.Pairs = append(p.Pairs, PortablePair{
			Node: mp.node, Var: mp.v, Op: mp.p.Op, C: mp.p.C,
			Resolved: mp.resolved, Ans: mp.ans,
		})
	}
	for _, ar := range rec.arrivals {
		p.Arrivals = append(p.Arrivals, PortableArrival{
			Entry: ar.entry, Var: ar.v, Op: ar.p.Op, C: ar.p.C,
		})
	}
	for _, nk := range rec.nested {
		p.Nested = append(p.Nested, PortableKey{Exit: nk.exit, Var: nk.v, Op: nk.op, C: nk.c})
	}
	return p
}

// Inject validates portable records against a program and commits the
// survivors, marked so they are never re-exported. Validation is strict: a
// record referencing a missing/deleted node, an out-of-range variable, a
// malformed predicate, or a nested summary that did not itself survive is
// dropped (the replay machinery computes those summaries fresh — reuse is
// an optimization, never a requirement). Returns the number of records
// accepted. Inject is intended for a fresh memo before its first run;
// records for keys already present are skipped.
func (m *SummaryMemo) Inject(p *ir.Program, recs []PortableRecord) int {
	valid := make([]*memoRecord, 0, len(recs))
	keys := make(map[memoKey]bool, len(recs))
	for i := range recs {
		rec := recordFromPortable(p, &recs[i])
		if rec == nil {
			continue
		}
		if keys[rec.key] {
			continue
		}
		keys[rec.key] = true
		valid = append(valid, rec)
	}
	// Keep the replay invariant "a committed record's nested summaries are
	// themselves committed": iteratively drop records whose nested keys are
	// not in the surviving set.
	for {
		dropped := false
		kept := valid[:0]
		for _, rec := range valid {
			ok := true
			for _, nk := range rec.nested {
				if !keys[nk] {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, rec)
			} else {
				delete(keys, rec.key)
				dropped = true
			}
		}
		valid = kept
		if !dropped {
			break
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	accepted := 0
	for _, rec := range valid {
		if _, ok := m.committed[rec.key]; ok {
			continue
		}
		m.committed[rec.key] = rec
		m.bytes += rec.footprint()
		accepted++
	}
	return accepted
}

// recordFromPortable converts and validates one record; nil when any
// reference does not hold in p.
func recordFromPortable(p *ir.Program, pr *PortableRecord) *memoRecord {
	liveNode := func(id ir.NodeID, kind ir.NodeKind, anyKind bool) bool {
		n := p.Node(id)
		if n == nil {
			return false
		}
		return anyKind || n.Kind == kind
	}
	validVar := func(v ir.VarID) bool { return v >= 0 && int(v) < len(p.Vars) }
	validOp := func(op pred.Op) bool { return op <= pred.Ge }
	validKey := func(k PortableKey) bool {
		return liveNode(k.Exit, ir.NExit, false) && validVar(k.Var) && validOp(k.Op)
	}
	if !validKey(pr.Key) {
		return nil
	}
	rec := &memoRecord{key: memoKey{exit: pr.Key.Exit, v: pr.Key.Var, op: pr.Key.Op, c: pr.Key.C}}
	for i := range pr.Pairs {
		mp := &pr.Pairs[i]
		if !liveNode(mp.Node, 0, true) || !validVar(mp.Var) || !validOp(mp.Op) || mp.Ans > 15 {
			return nil
		}
		rec.pairs = append(rec.pairs, memoPair{
			node: mp.Node, v: mp.Var, p: pred.Pred{Op: mp.Op, C: mp.C},
			resolved: mp.Resolved, ans: mp.Ans,
		})
	}
	for i := range pr.Arrivals {
		ar := &pr.Arrivals[i]
		if !liveNode(ar.Entry, ir.NEntry, false) || !validVar(ar.Var) || !validOp(ar.Op) {
			return nil
		}
		rec.arrivals = append(rec.arrivals, memoArrival{
			entry: ar.Entry, v: ar.Var, p: pred.Pred{Op: ar.Op, C: ar.C},
		})
	}
	for _, nk := range pr.Nested {
		if !validKey(nk) {
			return nil
		}
		rec.nested = append(rec.nested, memoKey{exit: nk.Exit, v: nk.Var, op: nk.Op, c: nk.C})
	}
	prev := ir.NodeID(-1)
	for _, id := range pr.Touched {
		if id <= prev || p.Node(id) == nil {
			return nil
		}
		prev = id
		rec.touched = append(rec.touched, id)
	}
	return rec
}
