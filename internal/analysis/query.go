// Package analysis implements the demand-driven interprocedural static
// correlation analysis of Bodík, Gupta and Soffa (PLDI'97, Figure 4), and
// the rollback phase that collects the resolved answers along the traversed
// paths.
//
// Given a conditional branch with predicate (v relop c), the analysis raises
// the query (v relop c) at the branch and propagates it backwards through
// the ICFG until it resolves at every reaching path. Resolutions:
//
//   - TRUE / FALSE — the path is correlated: the branch outcome is known.
//   - UNDEF — the variable receives a value the analysis cannot interpret.
//   - TRANS — summary-node queries only: the path through the procedure is
//     transparent for the query.
//
// Four correlation sources resolve queries: constant assignments,
// conditional-branch assertions (materialized as assert nodes on branch
// out-edges), byte conversions (value range [0,255], the paper's
// unsigned→signed source), and pointer dereferences (non-nil afterwards).
// Copy assignments substitute the query variable and propagation continues;
// an optional extension also substitutes through v := w ± k.
//
// Queries crossing a call site exit are computed through summary node
// entries stored at procedure exits, following the demand-driven
// interprocedural framework of Duesterwald, Gupta and Soffa (POPL'95).
package analysis

import (
	"fmt"
	"math/bits"
	"strings"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// AnswerSet is a set of query answers, represented as a bitmask.
type AnswerSet uint8

// Individual answers.
const (
	AnsTrue AnswerSet = 1 << iota
	AnsFalse
	AnsUndef
	AnsTrans
)

// Has reports whether the set contains every answer in m.
func (s AnswerSet) Has(m AnswerSet) bool { return s&m == m }

// Count returns the number of answers in the set.
func (s AnswerSet) Count() int { return bits.OnesCount8(uint8(s)) }

func (s AnswerSet) String() string {
	if s == 0 {
		return "{}"
	}
	var parts []string
	if s&AnsTrue != 0 {
		parts = append(parts, "T")
	}
	if s&AnsFalse != 0 {
		parts = append(parts, "F")
	}
	if s&AnsUndef != 0 {
		parts = append(parts, "U")
	}
	if s&AnsTrans != 0 {
		parts = append(parts, "Tr")
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Query is an interned query (v relop c). Owner is nil for queries raised on
// behalf of the analyzed conditional, and points to the summary node entry
// the query computes otherwise (the paper's sne field).
type Query struct {
	ID    int
	Var   ir.VarID
	P     pred.Pred
	Owner *SNE
}

func (q *Query) String() string {
	owner := ""
	if q.Owner != nil {
		owner = fmt.Sprintf(" [sne%d]", q.Owner.ID)
	}
	return fmt.Sprintf("(v%d %s)%s", int(q.Var), q.P, owner)
}

// SNE is a summary node entry, stored at a procedure exit node for one query
// content. It records the summary query raised at the exit, the queries that
// propagated all the way to each procedure entry, and the call-site exits
// waiting on it.
type SNE struct {
	ID   int
	Exit ir.NodeID
	Qsn  *Query
	// entries groups, per procedure entry node, the summary queries that
	// reached it (resolved TRANS there). A short slice instead of a map:
	// procedures have one entry before splitting and a handful after.
	entries []sneEntry
	// Waiters are the call-site-exit pairs whose answers depend on this
	// summary.
	Waiters []waiter

	// Memoization bookkeeping (see memo.go): replayed marks an SNE
	// reconstructed from a memo record; rec points to that record. deps
	// lists the nested SNEs this summary's closure waited on, and
	// linkNodes the call/entry nodes consulted when crossing nested call
	// sites — both feed the record's invalidation set.
	replayed  bool
	rec       *memoRecord
	deps      []*SNE
	linkNodes []ir.NodeID
}

type sneEntry struct {
	entry ir.NodeID
	qs    []*Query
}

// EntriesAt returns the summary queries that reached the given procedure
// entry (resolved TRANS there).
func (s *SNE) EntriesAt(entry ir.NodeID) []*Query {
	for i := range s.entries {
		if s.entries[i].entry == entry {
			return s.entries[i].qs
		}
	}
	return nil
}

// addEntry records the arrival of summary query q at a procedure entry.
func (s *SNE) addEntry(entry ir.NodeID, q *Query) {
	for i := range s.entries {
		if s.entries[i].entry == entry {
			s.entries[i].qs = append(s.entries[i].qs, q)
			return
		}
	}
	s.entries = append(s.entries, sneEntry{entry: entry, qs: []*Query{q}})
}

// addDep records that this summary's closure waits on nested summary d.
func (s *SNE) addDep(d *SNE) {
	for _, e := range s.deps {
		if e == d {
			return
		}
	}
	s.deps = append(s.deps, d)
}

type waiter struct {
	node  ir.NodeID // the call-site exit
	q     *Query    // the query raised there
	call  ir.NodeID // its call-site predecessor
	entry ir.NodeID // the procedure entry invoked by call
}

// PairKey identifies a (node, query) pair.
type PairKey struct {
	Node  ir.NodeID
	Query int
}

type queryKey struct {
	v     ir.VarID
	op    pred.Op
	c     int64
	owner int // SNE ID, or -1
}
