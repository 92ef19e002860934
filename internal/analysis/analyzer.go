package analysis

import (
	"math"
	"sync"
	"unsafe"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Options configures the correlation analysis.
type Options struct {
	// Interprocedural enables query propagation across procedure
	// boundaries (the ICBE analysis). When false the analysis is the
	// intraprocedural baseline: queries resolve UNDEF at procedure entries
	// and at call-site exits whose callee may modify the query variable
	// (per MOD summary information), matching the paper's baseline.
	Interprocedural bool
	// TerminationLimit bounds the number of node–query pairs processed for
	// one conditional; pending queries resolve UNDEF when it is reached.
	// Zero means unlimited. The paper's Figure 11 experiments use 1000.
	TerminationLimit int
	// ArithSubst extends symbolic back-substitution beyond copy
	// assignments to v := -w and v := w ± k (an ablation of the paper's
	// remark that richer symbolic manipulation is possible).
	ArithSubst bool
	// ModSummaries consults MOD summary information at call sites so
	// queries on globals the callee cannot modify skip the callee.
	ModSummaries bool
	// CacheAnswers caches the rolled-back answer sets of all top-level
	// (node, query) pairs across AnalyzeBranch calls, reproducing the
	// paper's query-caching variant (§3.3: O(CNV) analysis time at the
	// price of memory, which the authors found counterproductive). Cached
	// results are valid only while the program is unmodified, and results
	// computed with caching lack the supplier structure restructuring
	// needs — use it for analysis-only measurements.
	CacheAnswers bool
	// MemoSummaries lets the optimization driver keep a cross-round summary
	// memo: the summary node entries (the TRANS closures computed at
	// procedure exits) of one round replay into the next round's
	// re-analyses instead of being re-propagated. It is used only with a
	// supplied memo or seeds (the driver's Memo or SeedRecords); a cold
	// driver run keeps no memo, because on its own it replays too little to
	// pay for recording. Replay is exact — answers, supplier structure and
	// pair counts match a fresh computation — so results are
	// interchangeable with unmemoized ones (see memo.go for the contract).
	// Only interprocedural analysis has summaries to memoize. An Analyzer
	// itself replays only from a memo handed to NewWithMemo.
	MemoSummaries bool
}

// DefaultOptions returns the configuration used for the paper's main
// experiments: interprocedural, MOD summaries on, copy-only substitution.
func DefaultOptions() Options {
	return Options{Interprocedural: true, ModSummaries: true, MemoSummaries: true}
}

// Analyzer analyzes conditionals of one program. It precomputes MOD
// summaries; each conditional is analyzed on demand, reading call-site
// links from the nodes' own edges.
//
// An Analyzer is safe for concurrent AnalyzeBranch calls as long as the
// program is not mutated: per-conditional state lives in the per-call run
// (drawn from a sync.Pool and returned via Result.Release), the MOD
// summaries are computed once and read-only afterwards, and
// the cross-conditional answer cache and summary memo are lock-guarded.
type Analyzer struct {
	Prog *ir.Program
	Opts Options
	mod  []map[ir.VarID]bool
	memo *SummaryMemo
	// cache holds rolled-back answers of top-level pairs from previous
	// AnalyzeBranch calls (when Opts.CacheAnswers), guarded by mu.
	mu    sync.Mutex
	cache map[cacheKey]AnswerSet
}

type cacheKey struct {
	node ir.NodeID
	v    ir.VarID
	op   pred.Op
	c    int64
}

// New creates an analyzer for the program, without a summary memo: every
// conditional is analyzed by fresh propagation. Callers that analyze the
// same program round after round share a memo through NewWithMemo.
func New(p *ir.Program, opts Options) *Analyzer {
	return NewWithMemo(p, opts, nil)
}

// NewWithMemo creates an analyzer that records into and replays from the
// caller-managed summary memo (nil behaves like no memoization). The caller
// is responsible for calling memo.Commit at points where the program is
// known unchanged since the records were made — the optimization driver
// commits once per round, against its dirty set.
func NewWithMemo(p *ir.Program, opts Options, memo *SummaryMemo) *Analyzer {
	a := &Analyzer{Prog: p, Opts: opts, memo: memo}
	if opts.ModSummaries {
		a.mod = ModSets(p)
	}
	if opts.CacheAnswers {
		a.cache = make(map[cacheKey]AnswerSet)
	}
	return a
}

// CacheBytes reports the memory held by the cross-conditional structures:
// the answer cache (the paper's memory-versus-time tradeoff) plus the
// summary memo. Map entries are accounted at their key/value footprint
// scaled by the runtime's bucket geometry (8 slots per bucket, one tophash
// byte each, average occupancy ~6.5 at the load-factor boundary).
func (a *Analyzer) CacheBytes() int64 {
	a.mu.Lock()
	n := int64(len(a.cache))
	a.mu.Unlock()
	entry := int64(unsafe.Sizeof(cacheKey{})) + int64(unsafe.Sizeof(AnswerSet(0)))
	b := n * mapEntryFootprint(entry)
	if a.memo != nil {
		b += a.memo.Bytes()
	}
	return b
}

// mapEntryFootprint scales a raw key+value size to its amortized in-map
// footprint: 8-slot buckets carry one tophash byte per slot and run at
// about 13/16 occupancy before growing.
func mapEntryFootprint(kv int64) int64 { return (kv + 1) * 16 / 13 }

// cacheGet looks up a cached rolled-back answer set.
func (a *Analyzer) cacheGet(k cacheKey) (AnswerSet, bool) {
	a.mu.Lock()
	ans, ok := a.cache[k]
	a.mu.Unlock()
	return ans, ok
}

// Result holds the analysis of one conditional: the queries raised at every
// node, the single-answer resolutions of the propagation phase, and (after
// rollback) the collected answer sets per node–query pair. The backing
// storage is pooled; call Release when done with a result to recycle it
// (results simply fall to the GC otherwise).
type Result struct {
	// Cond is the analyzed branch node.
	Cond ir.NodeID
	// Root is the query raised at the conditional itself.
	Root *Query
	// PairsProcessed counts node–query pairs taken off the worklist (the
	// paper's analysis-cost metric); PairsRaised counts pairs ever raised.
	PairsProcessed int
	PairsRaised    int
	// Truncated reports that the termination limit was reached and pending
	// queries were conservatively resolved UNDEF.
	Truncated bool
	// Interrupted reports that an interrupt callback (a deadline or a
	// cancelled context threaded in by the driver) stopped propagation
	// early. Interrupted results are still sound — pending queries resolved
	// UNDEF exactly as under the termination limit — but incomplete, and
	// the driver declines to restructure from them.
	Interrupted bool
	// CacheHits counts pairs answered from the cross-conditional cache
	// (only with Options.CacheAnswers). MemoHits counts summary node
	// entries replayed from the summary memo (only for an analyzer created
	// with NewWithMemo and a non-nil memo).
	CacheHits int
	MemoHits  int
	// QueriesReused counts node–query pairs reconstructed from summary
	// records instead of being re-propagated — the incremental engine's
	// reuse counter.
	QueriesReused int

	st *state
}

// Release returns the result's pooled storage. The result and everything
// obtained through its accessors (queries, suppliers, SNEs) must not be
// used afterwards. Releasing is optional but keeps a steady-state driver
// allocation-free; calling it twice is harmless.
func (r *Result) Release() {
	st := r.st
	if st == nil {
		return
	}
	r.st = nil
	r.Root = nil
	st.reset()
	statePool.Put(st)
}

// QueriesAt lists the queries raised at a node, in raise order (the
// paper's Q[n]); nil for unvisited nodes.
func (r *Result) QueriesAt(n ir.NodeID) []*Query {
	if n < 0 || int(n) >= len(r.st.nodeQ) {
		return nil
	}
	return r.st.nodeQ[n]
}

// VisitedBits returns the visited-node bitset (bit n set when node n hosts
// at least one pair). The slice aliases pooled storage: it is valid until
// Release and must not be mutated. The driver intersects it word-wise with
// its dirty bitset instead of scanning node lists.
func (r *Result) VisitedBits() []uint64 { return r.st.visitedBits }

func (r *Result) pairID(n ir.NodeID, q *Query) int32 {
	if q == nil || n < 0 || int(n) >= len(r.st.nodeQ) {
		return -1
	}
	return r.st.findPair(n, q)
}

// AnswerAt returns the rolled-back answer set of the pair (n, q) — the
// paper's A[n, q] — or 0 when the pair was never raised.
func (r *Result) AnswerAt(n ir.NodeID, q *Query) AnswerSet {
	pid := r.pairID(n, q)
	if pid < 0 {
		return 0
	}
	return r.st.pairAns[pid]
}

// AnswersAt appends the rolled-back answer sets of node n's pairs to dst,
// in the order of QueriesAt(n), and returns the extended slice.
func (r *Result) AnswersAt(dst []AnswerSet, n ir.NodeID) []AnswerSet {
	if n < 0 || int(n) >= len(r.st.nodePair) {
		return dst
	}
	for _, pid := range r.st.nodePair[n] {
		dst = append(dst, r.st.pairAns[pid])
	}
	return dst
}

// ResolvedAt returns the propagation-phase resolution of the pair (n, q)
// (a single answer), and whether the pair resolved.
func (r *Result) ResolvedAt(n ir.NodeID, q *Query) (AnswerSet, bool) {
	pid := r.pairID(n, q)
	if pid < 0 || !r.st.pairResolved[pid] {
		return 0, false
	}
	return r.st.pairRes[pid], true
}

// SuppliersAt returns the per-predecessor answer sources of an unresolved
// pair; resolved pairs have none (their answers originate at the node).
// Restructuring consumes this.
func (r *Result) SuppliersAt(n ir.NodeID, q *Query) []EdgeSupplier {
	pid := r.pairID(n, q)
	if pid < 0 || r.st.pairSupDeleted[pid] {
		return nil
	}
	off, ln := r.st.pairSupOff[pid], r.st.pairSupLen[pid]
	if ln == 0 {
		return nil
	}
	return r.st.supStore[off : off+ln]
}

// ForEachPair visits every raised pair in raise order with its rolled-back
// answer set.
func (r *Result) ForEachPair(f func(n ir.NodeID, q *Query, ans AnswerSet)) {
	st := r.st
	for pid := range st.pairNode {
		f(st.pairNode[pid], st.queries[st.pairQ[pid]], st.pairAns[pid])
	}
}

// ForEachResolved visits every propagation-resolved pair in raise order
// with its resolution.
func (r *Result) ForEachResolved(f func(n ir.NodeID, q *Query, ans AnswerSet)) {
	st := r.st
	for pid := range st.pairNode {
		if st.pairResolved[pid] {
			f(st.pairNode[pid], st.queries[st.pairQ[pid]], st.pairRes[pid])
		}
	}
}

// RootAnswers returns the answer set at the conditional (union over all
// incoming paths).
func (r *Result) RootAnswers() AnswerSet {
	return r.AnswerAt(r.Cond, r.Root)
}

// HasCorrelation reports whether some incoming path is correlated (the
// branch outcome is known along it).
func (r *Result) HasCorrelation() bool {
	return r.RootAnswers()&(AnsTrue|AnsFalse) != 0
}

// FullCorrelation reports whether the branch outcome is known along every
// incoming path (the conditional can be completely eliminated).
func (r *Result) FullCorrelation() bool {
	root := r.RootAnswers()
	return root != 0 && root&(AnsUndef|AnsTrans) == 0
}

type run struct {
	a         *Analyzer
	p         *ir.Program
	st        *state
	res       *Result
	interrupt func() bool // nil = never; polled during propagation
}

// AnalyzeBranch runs the demand-driven analysis for one conditional. It
// returns nil when the branch is not of the analyzable (var relop const)
// form.
func (a *Analyzer) AnalyzeBranch(b ir.NodeID) *Result {
	return a.AnalyzeBranchInterruptible(b, nil)
}

// AnalyzeBranchInterruptible is AnalyzeBranch with a cooperative stop
// condition: interrupt (when non-nil) is polled periodically during query
// propagation, and when it reports true the run stops early exactly like
// the termination limit — pending queries resolve UNDEF, the result is
// marked Truncated and Interrupted — so a per-branch deadline or a
// cancelled context bounds the analysis without losing soundness.
func (a *Analyzer) AnalyzeBranchInterruptible(b ir.NodeID, interrupt func() bool) *Result {
	node := a.Prog.Node(b)
	if node == nil || !node.Analyzable() {
		return nil
	}
	st := acquireState(a.Prog.NumNodes(), len(a.Prog.Vars))
	res := &Result{Cond: b, st: st}
	r := &run{a: a, p: a.Prog, st: st, res: res, interrupt: interrupt}
	// Raise the initial query at the conditional itself; the branch node is
	// transparent, so the first processing step propagates it to all
	// predecessors, and the pair (b, root) collects the union of all
	// incoming answers, which restructuring uses to split b.
	res.Root = r.internQuery(node.CondVar(), node.CondPred(), nil)
	r.raise(b, res.Root)
	r.propagate()
	r.rollback()
	if a.memo != nil && !res.Truncated {
		r.recordSNEs()
	}
	if a.cache != nil && !res.Truncated {
		a.mu.Lock()
		for pid := range st.pairNode {
			q := st.queries[st.pairQ[pid]]
			if q.Owner != nil {
				continue
			}
			if ans := st.pairAns[pid]; ans != 0 {
				a.cache[cacheKey{st.pairNode[pid], q.Var, q.P.Op, q.P.C}] = ans
			}
		}
		a.mu.Unlock()
	}
	return res
}

func (r *run) internQuery(v ir.VarID, p pred.Pred, owner *SNE) *Query {
	return r.st.intern(v, p, owner)
}

// lookupQuery returns the interned query, or nil if it was never created
// during propagation (used by rollback, which must not invent new queries).
func (r *run) lookupQuery(v ir.VarID, p pred.Pred, owner *SNE) *Query {
	return r.st.lookupIntern(v, p, owner)
}

func (r *run) raise(n ir.NodeID, q *Query) {
	st := r.st
	if st.findPair(n, q) >= 0 {
		return
	}
	pid := st.addPair(n, q)
	r.res.PairsRaised++
	if q.Owner == nil && r.a.cache != nil {
		if ans, ok := r.a.cacheGet(cacheKey{n, q.Var, q.P.Op, q.P.C}); ok {
			// Cached rolled-back answers from a previous conditional's
			// analysis substitute for re-propagation.
			st.resolvePair(pid, ans)
			r.res.CacheHits++
			return
		}
	}
	st.worklist = append(st.worklist, pid)
}

// hardLimit bounds propagation when arithmetic back-substitution is
// enabled without an explicit termination limit: shifting constants around
// loop back edges can generate unboundedly many distinct queries, the very
// divergence the paper's cutoff rule exists for ("since query propagation
// may not terminate under a general symbolic analysis, we stop query
// propagation with the UNDEF answer when a sufficient number of nodes has
// been processed").
const hardLimit = 200_000

// propagate is the paper's Figure 4 worklist loop.
func (r *run) propagate() {
	st := r.st
	limit := r.a.Opts.TerminationLimit
	if limit == 0 && r.a.Opts.ArithSubst {
		limit = hardLimit
	}
	for st.wlHead < len(st.worklist) {
		// Poll the interrupt every 64 pairs: often enough that a deadline
		// cuts a diverging propagation within microseconds, rarely enough
		// that the time.Now() inside typical interrupt closures stays off
		// the hot path.
		if r.interrupt != nil && r.res.PairsProcessed&63 == 0 && r.interrupt() {
			r.res.Interrupted = true
			r.stopEarly()
			return
		}
		if limit > 0 && r.res.PairsProcessed >= limit {
			r.stopEarly()
			return
		}
		pid := st.worklist[st.wlHead]
		st.wlHead++
		r.res.PairsProcessed++
		r.process(pid)
	}
}

// stopEarly abandons propagation soundly: every pending pair is
// conservatively resolved UNDEF and the result marked Truncated (the
// paper's cutoff rule, shared by the termination limit and interrupts).
func (r *run) stopEarly() {
	st := r.st
	r.res.Truncated = true
	for _, pid := range st.worklist[st.wlHead:] {
		if !st.pairResolved[pid] {
			st.resolvePair(pid, AnsUndef)
		}
	}
	st.wlHead = len(st.worklist)
}

func (r *run) process(pid int32) {
	st := r.st
	n := r.p.Node(st.pairNode[pid])
	q := st.queries[st.pairQ[pid]]
	switch n.Kind {
	case ir.NEntry:
		r.processEntry(pid, n, q)
	case ir.NCallExit:
		r.processCallExit(pid, n, q)
	default:
		out := r.transfer(n, q)
		if out.resolved {
			st.resolvePair(pid, out.ans)
			return
		}
		for _, m := range n.Preds {
			r.raise(m, out.next)
		}
		if len(n.Preds) == 0 {
			// A node with no predecessors that is not an entry should not
			// exist in a valid graph, but resolve conservatively.
			st.resolvePair(pid, AnsUndef)
		}
	}
}

// processEntry handles procedure entry nodes (Figure 4 lines 6–13).
func (r *run) processEntry(pid int32, n *ir.Node, q *Query) {
	st := r.st
	if q.Owner != nil {
		// Summary node query reaching the entry: the procedure is
		// transparent along this path.
		if !r.substitutableAtEntry(n, q) {
			st.resolvePair(pid, AnsUndef)
			return
		}
		st.resolvePair(pid, AnsTrans)
		s := q.Owner
		s.addEntry(n.ID, q)
		for _, w := range s.Waiters {
			if w.entry == n.ID {
				r.raiseContinuation(w, q)
			}
		}
		return
	}
	if !r.a.Opts.Interprocedural {
		st.resolvePair(pid, AnsUndef)
		return
	}
	if !r.substitutableAtEntry(n, q) {
		// A query on a non-formal local at procedure start asks about an
		// uninitialized value.
		st.resolvePair(pid, AnsUndef)
		return
	}
	if len(n.Preds) == 0 {
		// main's entry, or an uncalled procedure.
		st.resolvePair(pid, AnsUndef)
		return
	}
	for _, m := range n.Preds {
		call := r.p.Node(m)
		r.raise(m, r.substEntry(q, call, q.Owner))
	}
}

// substitutableAtEntry reports whether the query variable has a meaning in
// the callers: a formal of the entered procedure or a global.
func (r *run) substitutableAtEntry(n *ir.Node, q *Query) bool {
	v := r.p.Vars[q.Var]
	if v.IsGlobal() {
		return true
	}
	for _, f := range r.p.Procs[n.Proc].Formals {
		if f == q.Var {
			return true
		}
	}
	return false
}

// substEntry rewrites a query crossing from a procedure entry to a call
// site: formals become the call's argument variables; globals pass through.
func (r *run) substEntry(q *Query, call *ir.Node, owner *SNE) *Query {
	v := r.p.Vars[q.Var]
	if v.IsGlobal() {
		if owner == q.Owner {
			return q
		}
		return r.internQuery(q.Var, q.P, owner)
	}
	for i, f := range r.p.Procs[call.Callee].Formals {
		if f == q.Var {
			return r.internQuery(call.Args[i], q.P, owner)
		}
	}
	panic("analysis: substEntry on non-formal non-global")
}

// callExitContent rewrites the query through the call-site exit's return
// value copy: a query on the destination becomes a query on the callee's
// return variable. viaRet reports whether the rewrite fired — the only way
// a non-global query content can legitimately refer to the callee's frame.
func (r *run) callExitContent(n *ir.Node, q *Query) (ir.VarID, pred.Pred, bool) {
	if n.Dst != ir.NoVar && q.Var == n.Dst {
		return r.p.Procs[n.Callee].RetVar, q.P, true
	}
	return q.Var, q.P, false
}

// mustTraverse reports whether the query (with content variable v) must be
// propagated through the callee at a call-site exit, or may skip straight
// to the call node. viaRet marks content produced by callExitContent's
// destination-to-return-variable rewrite at this exit.
//
// Only two contents cross into the callee: the return variable reached via
// that rewrite, and globals the callee may modify. Every other content is a
// caller-frame local the callee cannot touch (MiniC has no reference
// parameters), and that holds even when the callee is the caller's own
// procedure: a recursive callee runs in a separate frame, so its facts about
// a shared VarID say nothing about the caller's instance. Deciding traversal
// by vv.Proc == callee here would conflate those frames and misapply the
// callee's base-case facts to the caller's live locals.
func (r *run) mustTraverse(callee int, v ir.VarID, viaRet bool) bool {
	if viaRet {
		return true
	}
	if !r.p.Vars[v].IsGlobal() {
		return false
	}
	if r.a.mod != nil && !r.a.mod[callee][v] {
		return false
	}
	return true
}

// processCallExit handles call-site exit nodes (Figure 4 lines 14–26).
func (r *run) processCallExit(pid int32, n *ir.Node, q *Query) {
	st := r.st
	cv, cp, viaRet := r.callExitContent(n, q)
	call, exit := r.p.CallSite(n)
	if call == ir.NoNode || exit == ir.NoNode {
		// Graph not in normal form — resolve conservatively.
		st.resolvePair(pid, AnsUndef)
		return
	}
	if !r.mustTraverse(int(n.Callee), cv, viaRet) {
		r.raise(call, r.internQuery(cv, cp, q.Owner))
		return
	}
	if !r.a.Opts.Interprocedural {
		// Baseline: the callee may modify the variable; without crossing
		// the boundary the value is unknown.
		st.resolvePair(pid, AnsUndef)
		return
	}
	s := r.getSNE(exit, cv, cp)
	callNode := r.p.Node(call)
	en := r.p.EntrySucc(callNode).ID
	if owner := q.Owner; owner != nil {
		// A nested summary: the owner's closure depends on s, and its
		// replay validity on the call-site linkage consulted here.
		owner.addDep(s)
		owner.linkNodes = append(owner.linkNodes, call, exit, en)
	}
	w := waiter{node: n.ID, q: q, call: call, entry: en}
	s.Waiters = append(s.Waiters, w)
	for _, qo := range s.EntriesAt(en) {
		r.raise(call, r.substEntry(qo, callNode, q.Owner))
	}
}

// getSNE returns the summary node entry for (exit, content): an existing
// one, a memo replay, or a fresh one with its summary query raised at the
// exit.
func (r *run) getSNE(exit ir.NodeID, v ir.VarID, p pred.Pred) *SNE {
	if s := r.st.findSNE(exit, v, p); s != nil {
		return s
	}
	if r.a.memo != nil {
		if rec := r.a.memo.lookup(memoKey{exit: exit, v: v, op: p.Op, c: p.C}); rec != nil {
			if s := r.replaySNE(rec); s != nil {
				return s
			}
		}
	}
	s := r.st.newSNE(exit)
	s.Qsn = r.internQuery(v, p, s)
	r.raise(exit, s.Qsn)
	return s
}

// raiseContinuation continues a waiting query at the call node after the
// summary query qo reached the waiter's entry: the procedure is transparent
// along that path, so propagation resumes in the caller.
func (r *run) raiseContinuation(w waiter, qo *Query) {
	call := r.p.Node(w.call)
	r.raise(w.call, r.substEntry(qo, call, w.q.Owner))
}

type transferResult struct {
	resolved bool
	ans      AnswerSet
	next     *Query
}

func outcomeToAnswer(o pred.Outcome) AnswerSet {
	switch o {
	case pred.True:
		return AnsTrue
	case pred.False:
		return AnsFalse
	}
	return 0
}

// transfer models the effect of one ordinary node on a backward-propagating
// query: it either resolves the query or substitutes it for continued
// propagation.
func (r *run) transfer(n *ir.Node, q *Query) transferResult {
	cont := transferResult{next: q}
	switch n.Kind {
	case ir.NAssign:
		if n.Dst != q.Var {
			return cont
		}
		switch n.RHS().Kind {
		case ir.RConst:
			if q.P.Eval(n.RHS().Const) {
				return transferResult{resolved: true, ans: AnsTrue}
			}
			return transferResult{resolved: true, ans: AnsFalse}
		case ir.RCopy:
			return transferResult{next: r.internQuery(n.RHS().Src, q.P, q.Owner)}
		case ir.RByte:
			// The unsigned-conversion correlation source: byte() yields a
			// value in [0,255].
			if o := (pred.Range{Lo: 0, Hi: 255}).Decide(q.P); o != pred.Unknown {
				return transferResult{resolved: true, ans: outcomeToAnswer(o)}
			}
			return transferResult{resolved: true, ans: AnsUndef}
		case ir.RAlloc:
			// alloc never returns nil in MiniC: the result is >= 1.
			if o := (pred.Range{Lo: 1, Hi: math.MaxInt64}).Decide(q.P); o != pred.Unknown {
				return transferResult{resolved: true, ans: outcomeToAnswer(o)}
			}
			return transferResult{resolved: true, ans: AnsUndef}
		case ir.RNeg:
			if r.a.Opts.ArithSubst && q.P.C != math.MinInt64 {
				// v = -w: (v op c) == (w mirror(op) -c).
				return transferResult{next: r.internQuery(n.RHS().Src,
					pred.Pred{Op: mirrorOp(q.P.Op), C: -q.P.C}, q.Owner)}
			}
			return transferResult{resolved: true, ans: AnsUndef}
		case ir.RBinop:
			if next, ok := r.arithSubst(n.RHS(), q); ok {
				return transferResult{next: next}
			}
			return transferResult{resolved: true, ans: AnsUndef}
		default: // RLoad, RInput
			return transferResult{resolved: true, ans: AnsUndef}
		}

	case ir.NAssert:
		if n.AVar() != q.Var {
			return cont
		}
		if o := pred.DecidePred(n.APred(), q.P); o != pred.Unknown {
			return transferResult{resolved: true, ans: outcomeToAnswer(o)}
		}
		return cont

	case ir.NCallExit, ir.NEntry:
		panic("analysis: transfer on boundary node")

	default:
		// NBranch, NStore, NPrint, NNop, NExit, NCall: transparent for the
		// query variable (stores change the heap, not variables).
		return cont
	}
}

// arithSubst substitutes a query through v := w ± k when the ArithSubst
// extension is enabled.
func (r *run) arithSubst(rhs *ir.RHS, q *Query) (*Query, bool) {
	if !r.a.Opts.ArithSubst {
		return nil, false
	}
	a, b := rhs.A, rhs.B
	switch rhs.Op {
	case ir.OpAdd:
		// v = w + k or v = k + w: shift by k.
		if !a.IsConst && b.IsConst {
			if p, ok := pred.ShiftSat(q.P, b.Const); ok {
				return r.internQuery(a.Var, p, q.Owner), true
			}
		}
		if a.IsConst && !b.IsConst {
			if p, ok := pred.ShiftSat(q.P, a.Const); ok {
				return r.internQuery(b.Var, p, q.Owner), true
			}
		}
	case ir.OpSub:
		// v = w - k: shift by -k.
		if !a.IsConst && b.IsConst && b.Const != math.MinInt64 {
			if p, ok := pred.ShiftSat(q.P, -b.Const); ok {
				return r.internQuery(a.Var, p, q.Owner), true
			}
		}
		// v = k - w: (v op c) == (-w op c-k) == (w mirror(op) k-c).
		if a.IsConst && !b.IsConst {
			kc := a.Const - q.P.C
			underflow := (q.P.C > 0 && kc > a.Const) || (q.P.C < 0 && kc < a.Const)
			if !underflow {
				return r.internQuery(b.Var, pred.Pred{Op: mirrorOp(q.P.Op), C: kc}, q.Owner), true
			}
		}
	}
	return nil, false
}

func mirrorOp(op pred.Op) pred.Op {
	switch op {
	case pred.Lt:
		return pred.Gt
	case pred.Le:
		return pred.Ge
	case pred.Gt:
		return pred.Lt
	case pred.Ge:
		return pred.Le
	}
	return op
}
