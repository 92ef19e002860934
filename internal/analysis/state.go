package analysis

import (
	"sync"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// This file holds the dense per-run storage of the analysis. The seed
// implementation kept every per-run relation in maps keyed by structs
// (raised, Resolved, Answers, Suppliers, the query-intern table); each
// AnalyzeBranch call allocated them afresh and every pair touched them
// through hashing. The hot path now runs on flat slices indexed by a dense
// pair ID assigned in raise order, with per-node and per-variable side
// tables indexed directly by NodeID/VarID, and the whole block recycles
// through a sync.Pool so concurrent driver workers reuse scratch buffers
// across conditionals instead of reallocating.
//
// Lookup structure:
//
//   - a pair (n, q) is found by scanning the (short) list of queries raised
//     at n; a per-run map fallback engages for the rare node that
//     accumulates more than fallbackThreshold queries (possible under
//     ArithSubst, which can mint unboundedly many predicates per variable);
//   - a query (v, pred, owner) is interned by scanning the chain of queries
//     sharing v; the same map fallback engages per variable.
//
// Release() returns a Result's state block to the pool. Callers that drop a
// Result without releasing merely hand the block to the GC — nothing
// breaks — but the optimization driver releases every settled result, so a
// steady-state driver run reuses a handful of blocks regardless of how many
// conditionals it analyzes.

// fallbackThreshold is the per-node query count (and per-variable intern
// chain length) beyond which the linear scans switch to map lookups.
const fallbackThreshold = 32

// qChunkSize sizes the query arena chunks.
const qChunkSize = 128

// state is the pooled per-run storage block.
type state struct {
	// Per-pair parallel slices, indexed by dense pair ID in raise order.
	pairNode     []ir.NodeID
	pairQ        []int32
	pairResolved []bool
	pairRes      []AnswerSet // propagation-phase resolution (when resolved)
	pairAns      []AnswerSet // rolled-back answer sets (after rollback)
	pairSupOff   []int32     // offset into supStore
	pairSupLen   []int32
	// pairSupDeleted marks pairs whose suppliers the forced-UNDEF phase of
	// rollback withdrew from the public view. The supplier range itself
	// stays: the fixpoint keeps consulting it (matching the seed, which
	// deleted only the published map entry, not its internal relation).
	pairSupDeleted []bool

	// Flat supplier arena shared by all pairs; supSrc holds the supplying
	// pair's ID (or -1 when that pair was never raised, possible only after
	// truncation severed a chain).
	supStore []EdgeSupplier
	supSrc   []int32

	// Reverse supplier relation (consumers), built once per rollback.
	consOff   []int32
	consLen   []int32
	consStore []int32

	// Per-node side tables, indexed by NodeID; nodeQ holds the queries
	// raised at each node in raise order (the paper's Q[n]) and nodePair
	// the parallel pair IDs. visited lists the nodes with at least one
	// pair, in first-raise order — it is also the reset list. visitedBits
	// mirrors visited as a bitset (bit n set when node n hosts a pair) so
	// the driver's dirty-set intersection is a word-wise AND instead of a
	// per-node scan.
	nodeQ       [][]*Query
	nodePair    [][]int32
	visited     []ir.NodeID
	visitedBits []uint64

	// Query interning: queries by ID, backed by a chunked arena so the
	// Query values are reused across runs; per-variable chains via
	// varHead/qNext.
	queries []*Query
	qChunks [][]Query
	nQ      int
	varHead []int32 // first query ID for each VarID, -1 when none
	varLen  []int32 // chain length per VarID (decides the map fallback)
	qNext   []int32 // next query ID sharing the variable, parallel to queries

	// Map fallbacks, engaged only past fallbackThreshold.
	pairIdx   map[PairKey]int32
	internBig map[queryKey]*Query

	snes []*SNE

	worklist []int32
	wlHead   int
	scratch  []int32 // rollback worklist / forced-UNDEF list
}

var statePool = sync.Pool{New: func() any { return &state{} }}

// acquireState takes a clean block from the pool and sizes its per-node and
// per-variable tables for the program.
func acquireState(numNodes, numVars int) *state {
	st := statePool.Get().(*state)
	if cap(st.nodeQ) < numNodes {
		st.nodeQ = make([][]*Query, numNodes)
		st.nodePair = make([][]int32, numNodes)
	}
	st.nodeQ = st.nodeQ[:numNodes]
	st.nodePair = st.nodePair[:numNodes]
	words := (numNodes + 63) / 64
	if cap(st.visitedBits) < words {
		st.visitedBits = make([]uint64, words)
	}
	st.visitedBits = st.visitedBits[:words]
	if cap(st.varHead) < numVars {
		grown := make([]int32, numVars)
		copy(grown, st.varHead[:cap(st.varHead)])
		for i := cap(st.varHead); i < numVars; i++ {
			grown[i] = -1
		}
		st.varHead = grown
		st.varLen = make([]int32, numVars)
	}
	st.varHead = st.varHead[:numVars]
	st.varLen = st.varLen[:numVars]
	return st
}

// reset restores the block to its clean pooled form, retaining capacity.
// Cleanup is proportional to what the run touched, not to program size: the
// per-node lists are cleared via the visited list and the per-variable
// chain heads via the interned queries.
func (st *state) reset() {
	for _, n := range st.visited {
		st.nodeQ[n] = st.nodeQ[n][:0]
		st.nodePair[n] = st.nodePair[n][:0]
		st.visitedBits[n>>6] &^= 1 << (uint(n) & 63)
	}
	for _, q := range st.queries {
		st.varHead[q.Var] = -1
		st.varLen[q.Var] = 0
	}
	st.pairNode = st.pairNode[:0]
	st.pairQ = st.pairQ[:0]
	st.pairResolved = st.pairResolved[:0]
	st.pairRes = st.pairRes[:0]
	st.pairAns = st.pairAns[:0]
	st.pairSupOff = st.pairSupOff[:0]
	st.pairSupLen = st.pairSupLen[:0]
	st.pairSupDeleted = st.pairSupDeleted[:0]
	st.supStore = st.supStore[:0]
	st.supSrc = st.supSrc[:0]
	st.consOff = st.consOff[:0]
	st.consLen = st.consLen[:0]
	st.consStore = st.consStore[:0]
	st.visited = st.visited[:0]
	st.queries = st.queries[:0]
	st.qNext = st.qNext[:0]
	st.nQ = 0
	if len(st.pairIdx) > 0 {
		clear(st.pairIdx)
	}
	if len(st.internBig) > 0 {
		clear(st.internBig)
	}
	st.snes = st.snes[:0]
	st.worklist = st.worklist[:0]
	st.wlHead = 0
	st.scratch = st.scratch[:0]
}

// newQuery allocates an interned query from the chunked arena and links it
// into its variable's chain.
func (st *state) newQuery(v ir.VarID, p pred.Pred, owner *SNE) *Query {
	ci, off := st.nQ/qChunkSize, st.nQ%qChunkSize
	if ci == len(st.qChunks) {
		st.qChunks = append(st.qChunks, make([]Query, qChunkSize))
	}
	q := &st.qChunks[ci][off]
	st.nQ++
	*q = Query{ID: len(st.queries), Var: v, P: p, Owner: owner}
	st.queries = append(st.queries, q)
	st.qNext = append(st.qNext, st.varHead[v])
	st.varHead[v] = int32(q.ID)
	return q
}

// lookupIntern finds the interned query for (v, p, owner), or nil. Chains
// past fallbackThreshold are served by the internBig map instead.
func (st *state) lookupIntern(v ir.VarID, p pred.Pred, owner *SNE) *Query {
	if st.varLen[v] > fallbackThreshold {
		return st.internBig[internKey(v, p, owner)]
	}
	for id := st.varHead[v]; id >= 0; id = st.qNext[id] {
		q := st.queries[id]
		if q.P == p && q.Owner == owner {
			return q
		}
	}
	return nil
}

// intern returns the query for (v, p, owner), creating it when new.
func (st *state) intern(v ir.VarID, p pred.Pred, owner *SNE) *Query {
	if q := st.lookupIntern(v, p, owner); q != nil {
		return q
	}
	q := st.newQuery(v, p, owner)
	st.varLen[v]++
	if st.varLen[v] > fallbackThreshold {
		if st.internBig == nil {
			st.internBig = make(map[queryKey]*Query)
		}
		if st.varLen[v] == fallbackThreshold+1 {
			// Crossing the threshold: every query of this variable must be
			// reachable through the map, so migrate the whole chain.
			for m := st.varHead[v]; m >= 0; m = st.qNext[m] {
				mq := st.queries[m]
				st.internBig[internKey(mq.Var, mq.P, mq.Owner)] = mq
			}
		} else {
			st.internBig[internKey(v, p, owner)] = q
		}
	}
	return q
}

func internKey(v ir.VarID, p pred.Pred, owner *SNE) queryKey {
	k := queryKey{v: v, op: p.Op, c: p.C, owner: -1}
	if owner != nil {
		k.owner = owner.ID
	}
	return k
}

// findPair returns the dense pair ID for (n, q), or -1 when the pair was
// never raised. Nodes past fallbackThreshold queries are served by the
// pairIdx map.
func (st *state) findPair(n ir.NodeID, q *Query) int32 {
	qs := st.nodeQ[n]
	if len(qs) > fallbackThreshold {
		if pid, ok := st.pairIdx[PairKey{n, q.ID}]; ok {
			return pid
		}
		return -1
	}
	for i, oq := range qs {
		if oq == q {
			return st.nodePair[n][i]
		}
	}
	return -1
}

// addPair appends a new pair for (n, q) and returns its ID. The caller has
// checked absence via findPair.
func (st *state) addPair(n ir.NodeID, q *Query) int32 {
	pid := int32(len(st.pairNode))
	st.pairNode = append(st.pairNode, n)
	st.pairQ = append(st.pairQ, int32(q.ID))
	st.pairResolved = append(st.pairResolved, false)
	st.pairRes = append(st.pairRes, 0)
	st.pairAns = append(st.pairAns, 0)
	st.pairSupOff = append(st.pairSupOff, 0)
	st.pairSupLen = append(st.pairSupLen, 0)
	st.pairSupDeleted = append(st.pairSupDeleted, false)
	if len(st.nodeQ[n]) == 0 {
		st.visited = append(st.visited, n)
		st.visitedBits[n>>6] |= 1 << (uint(n) & 63)
	}
	st.nodeQ[n] = append(st.nodeQ[n], q)
	st.nodePair[n] = append(st.nodePair[n], pid)
	if len(st.nodeQ[n]) > fallbackThreshold {
		if st.pairIdx == nil {
			st.pairIdx = make(map[PairKey]int32)
		}
		if len(st.nodeQ[n]) == fallbackThreshold+1 {
			// Crossing the threshold: migrate the node's existing pairs.
			for i, oq := range st.nodeQ[n] {
				st.pairIdx[PairKey{n, oq.ID}] = st.nodePair[n][i]
			}
		} else {
			st.pairIdx[PairKey{n, q.ID}] = pid
		}
	}
	return pid
}

// resolvePair records a propagation-phase resolution.
func (st *state) resolvePair(pid int32, ans AnswerSet) {
	st.pairResolved[pid] = true
	st.pairRes[pid] = ans
}

// newSNE registers a summary node entry for the exit.
func (st *state) newSNE(exit ir.NodeID) *SNE {
	s := &SNE{ID: len(st.snes), Exit: exit}
	st.snes = append(st.snes, s)
	return s
}

// findSNE returns the SNE for (exit, v, p), or nil. SNE counts are tiny
// (one per distinct query content crossing a procedure exit), so a linear
// scan beats any map.
func (st *state) findSNE(exit ir.NodeID, v ir.VarID, p pred.Pred) *SNE {
	for _, s := range st.snes {
		if s.Exit == exit && s.Qsn != nil && s.Qsn.Var == v && s.Qsn.P == p {
			return s
		}
	}
	return nil
}
