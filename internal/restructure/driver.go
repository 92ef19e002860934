package restructure

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/ir"
)

// Test-only fault-injection hooks (see SetFaultInjection). testHookAnalyze
// runs at the start of every branch analysis against the round's snapshot;
// testHookAfterApply runs on the scratch fork after a successful Eliminate,
// before the gating oracles, and a non-nil return is treated as a validation
// failure; it must write nodes only through the ir mutators or Mut, and a
// fork it leaves valid but not at a prune fixpoint must fail a later gate.
// testHookSettle observes every transactional attempt (correlation apply or
// fold) once it is settled, before an adopted fork replaces the working
// program; carried is the facts adoption will install, nil when the attempt
// is not adopted. All may panic to exercise the driver's fault isolation. They
// must be nil outside tests.
var (
	testHookAnalyze    func(snapshot *ir.Program, b ir.NodeID)
	testHookAfterApply func(scratch *ir.Program, cond ir.NodeID) error
	testHookSettle     func(w *working, scratch *ir.Program, carried *facts)
)

// DriverOptions configures the two-phase optimization driver.
type DriverOptions struct {
	// Analysis configures the correlation analysis (interprocedural or the
	// intraprocedural baseline, termination limit, substitution power).
	// CacheAnswers is ignored: cached answers lack the supplier structure
	// restructuring consumes, and a cache shared between analysis workers
	// would make reports depend on goroutine scheduling.
	Analysis analysis.Options
	// MaxDuplication is the per-conditional code-duplication limit N: a
	// conditional is optimized only when the analysis estimates at most N
	// new operation nodes (paper §4 "Eliminated Branches"). Zero means
	// unlimited.
	MaxDuplication int
	// FullOnly restricts optimization to fully correlated conditionals
	// (outcome known along every incoming path).
	FullOnly bool
	// Profile supplies node execution counts; with MinBenefitPerNode > 0
	// the driver implements the heuristic the paper suggests as an
	// improvement over the growth-only limit (§4: "a better heuristic
	// would also consider the amount of conditionals eliminated"): a
	// conditional is optimized only when its estimated eliminated dynamic
	// instances per duplicated node reach the threshold.
	Profile           map[ir.NodeID]int64
	MinBenefitPerNode float64
	// Workers bounds the analysis-phase goroutines. 0 and 1 analyze
	// serially; negative values use runtime.NumCPU(). The optimized
	// program and the reports are identical for every worker count (the
	// wall-clock and worker-count fields of DriverStats aside).
	Workers int
	// MaxWork caps the total number of work-queue entries the driver
	// dequeues, including invalidation re-analyses, bounding the sweep on
	// pathological programs whose restructurings keep splitting queued
	// conditionals. Zero selects the default 8×(initial conditionals)+64.
	// Conditionals still queued when the cap is reached receive a report
	// entry with Skipped set and DriverResult.Truncated is raised.
	MaxWork int
	// Ctx cancels the driver run: when it expires, still-queued
	// conditionals are reported Skipped with a timeout failure, exactly
	// like the MaxWork path, and the program optimized so far is returned.
	// nil means context.Background().
	Ctx context.Context
	// Timeout is the overall driver deadline layered onto Ctx (0 = none).
	Timeout time.Duration
	// BranchTimeout bounds each conditional's analysis (0 = none). A
	// branch whose analysis deadline expires is reported with a timeout
	// failure and left unoptimized; the driver moves on.
	BranchTimeout time.Duration
	// Memo, when non-nil, is used as the run's summary memo instead of a
	// fresh one, letting a caller keep one memo warm across runs (for
	// example a re-analysis after an edit, as icbe-bench -stress does), seed
	// it through analysis.SummaryMemo.Inject, or harvest the run's pristine
	// records afterwards (ExportPristine). The driver still
	// owns the commit points. Ignored unless the analysis options enable
	// summary memoization. The memo must not be shared between concurrent
	// driver runs.
	Memo *analysis.SummaryMemo
	// SeedRecords are portable summary records injected into the run's memo
	// before the first round, equivalent to seeding Memo through
	// analysis.SummaryMemo.Inject. Injection is strict verify-on-read and
	// replay is pair-for-pair exact, so seeds change warmth, never results;
	// invalid or stale records are silently dropped. Ignored when the run has
	// no memo.
	SeedRecords []analysis.PortableRecord
	// Scratch disables the cross-round incremental engine entirely (no
	// summary memo): every requeued conditional is re-analyzed from
	// scratch each round. The optimized program and reports are identical
	// either way — Scratch exists as the honest baseline for measuring the
	// incremental speedup (icbe-bench -stress).
	Scratch bool
	// Verify enables the differential shadow-execution oracle: each
	// apply's fork is run over VerifyInputs plus built-in input vectors and
	// compared with the working program's runs, and any output difference
	// or operation-count growth rolls the apply back with a typed failure.
	// Verification multiplies apply cost by the number of inputs; see
	// DriverStats.VerifyRuns / VerifyWall.
	Verify bool
	// VerifyInputs supplies workload input vectors for Verify, checked in
	// addition to the built-in vectors.
	VerifyInputs [][]int64
	// Check enables the static verification layer (internal/check): every
	// demand-driven answer is cross-checked against a forward SCCP oracle
	// before its restructuring is attempted, and each applied restructuring
	// must not raise an invariant lint finding (unreachable node,
	// use-before-def, must-fail assertion, structural violation) over the
	// working program's baseline. Violations roll back with FailCheck.
	// Unlike Verify it runs no inputs, so it covers all paths statically;
	// the two oracles compose.
	Check bool
	// Fold enables the CCP-fact-driven residual fold pass (internal/fold):
	// after the correlation rounds settle, the forward oracle's fact table
	// classifies every remaining conditional, branches constant on all
	// executable in-edges are folded whole, and edge-split residuals have
	// their deciding in-edges redirected to the implied arm. Every fold is
	// a transactional attempt on a fork (ir.Fork) gated by ir.Validate, the
	// invariant passes, shadow execution, and a post-fold oracle re-check;
	// vetoes roll back with FailFold. Independent of Check (the fold pass
	// runs its own oracle), though the two compose naturally.
	Fold bool
}

// CondReport records the per-conditional outcome of a driver run.
type CondReport struct {
	// Cond is the branch node in the input program.
	Cond ir.NodeID
	Line int
	// Analyzable is false for branches not of the (var relop const) form.
	Analyzable bool
	// Answers is the root answer set found by the analysis.
	Answers analysis.AnswerSet
	// Full reports full correlation (no UNDEF path).
	Full bool
	// DupEstimate is the analysis' upper bound on new operation nodes.
	DupEstimate int
	// Benefit is the profile-based estimate of decided dynamic instances
	// (0 without a profile).
	Benefit int64
	// PairsProcessed is the analysis cost for this conditional.
	PairsProcessed int
	// Applied reports that restructuring was performed for this branch.
	Applied bool
	// Removed counts eliminated branch copies when applied.
	Removed int
	// Skipped reports that the branch was still queued when the driver's
	// work cap (DriverOptions.MaxWork) was reached or its deadline expired
	// and was never analyzed.
	Skipped bool
	// Failure records a contained failure (panic, validation or shadow
	// oracle violation, deadline) that rolled this branch's optimization
	// back. The working program is unaffected; other branches still
	// optimize.
	Failure *BranchFailure
	// Err records a restructuring failure (the program is left untouched).
	// When Failure is set, Err carries the same value; Err without Failure
	// is a graceful decline by Eliminate (e.g. ambiguous transparency).
	Err error
}

// DriverResult is the outcome of optimizing a whole program.
type DriverResult struct {
	// Program is the optimized program (the input is never mutated).
	Program *ir.Program
	// Reports holds one entry per conditional branch considered, in the
	// deterministic order the driver settled them.
	Reports []CondReport
	// Optimized counts conditionals for which restructuring was applied.
	Optimized int
	// PairsTotal sums the analysis cost over all conditionals.
	PairsTotal int
	// Truncated reports that the work cap was reached and the conditionals
	// carrying Skipped reports were never analyzed.
	Truncated bool
	// Stats holds the driver's cost counters.
	Stats DriverStats
}

// condResult carries one conditional's analysis-phase outcome across the
// phase boundary into the serial apply phase.
type condResult struct {
	b ir.NodeID
	// live is false when the branch was consumed by an earlier
	// restructuring (split or eliminated) before this round's snapshot.
	live  bool
	res   *analysis.Result
	rep   CondReport
	apply bool
}

// Optimize applies ICBE to every analyzable conditional of the program with
// a two-phase, batched driver. Each round, phase 1 analyzes every queued
// conditional concurrently against the current program snapshot — the
// analysis is demand-driven and per-conditional, so the queries are
// independent and embarrassingly parallel. Phase 2 then applies the
// accepted restructurings serially, forking the working program only when a
// restructuring is actually attempted; a conditional whose analysis visited
// none of the nodes changed by an earlier restructuring of the same round
// is applied directly from its snapshot result, and only conditionals whose
// visited node set intersects the changed nodes are re-analyzed in the next
// round. The input program is left unmodified, and the result is identical
// for every worker count.
//
// The driver is transactional and fault-isolated: each apply runs on a
// copy-on-write fork and is adopted only after it passes ir.Validate (and,
// with Check and Verify, the invariant and shadow gates); a panic in analysis or
// restructuring is recovered into a typed BranchFailure on that
// conditional's report. The driver may refuse to optimize a branch, but it
// never crashes and never emits a program that failed a gate.
func Optimize(p *ir.Program, opts DriverOptions) *DriverResult {
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.NumCPU()
	}
	if workers == 0 {
		workers = 1
	}
	aopts := opts.Analysis
	aopts.CacheAnswers = false
	// The summary memo outlives the per-round analyzers; the driver owns the
	// commit points so workers replay only round-frozen records (see
	// analysis.SummaryMemo for the invalidation contract).
	var memo *analysis.SummaryMemo
	if aopts.MemoSummaries && aopts.Interprocedural && !opts.Scratch {
		if opts.Memo != nil {
			memo = opts.Memo
		} else {
			memo = analysis.NewSummaryMemo()
		}
	}
	ctx := opts.Ctx
	var seedsInjected int
	if memo != nil && len(opts.SeedRecords) > 0 {
		seedsInjected = memo.Inject(p, opts.SeedRecords)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	out := &DriverResult{}
	out.Stats.Workers = workers
	out.Stats.SeedsInjected = seedsInjected

	w := &working{prog: ir.Clone(p), inputs: verifyInputs(opts), maxSteps: verifyMaxSteps,
		check: opts.Check, verify: opts.Verify, stats: &out.Stats}
	out.Stats.Clones = 1
	if opts.Check {
		out.Stats.CheckFindingsPre = len(w.report().Findings)
	}

	// The work queue starts with the conditionals of the input program.
	// When restructuring one conditional splits another into copies, the
	// copies are requeued so the duplication-limit sweep stays monotone; a
	// cap bounds the total work on pathological programs.
	var queue []ir.NodeID
	queued := make(map[ir.NodeID]bool)
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			queue = append(queue, n.ID)
			queued[n.ID] = true
		}
	})
	budget := opts.MaxWork
	if budget <= 0 {
		budget = 8*len(queue) + 64
	}
	// dirtyBits mirrors each round's dirty map as a bitset so the
	// visited-dirty intersection is a word-wise AND against the analysis'
	// visited bitset; the backing array is reused across rounds.
	var dirtyBits []uint64

	for len(queue) > 0 && budget > 0 && ctx.Err() == nil {
		batch := queue
		if len(batch) > budget {
			batch = batch[:budget]
		}
		overflow := queue[len(batch):]
		budget -= len(batch)
		out.Stats.Rounds++

		// Phase 1: concurrent, read-only analysis of the whole batch
		// against the immutable snapshot. One analyzer is shared so the
		// MOD summaries are computed once per round.
		results := analyzeBatch(ctx, w.prog, batch, aopts, memo, opts, workers, &out.Stats)

		// Phase 2: serial application in batch order. dirty accumulates
		// the nodes changed by restructurings applied this round; a later
		// conditional whose analysis visited any of them is re-analyzed
		// against the next snapshot instead of being applied stale.
		t0 := time.Now()
		dirty := make(map[ir.NodeID]bool)
		dirtyBits = dirtyBits[:0]
		var next []ir.NodeID
		for i := range results {
			cr := &results[i]
			if !cr.live {
				// Consumed by an earlier restructuring.
				continue
			}
			if ctx.Err() != nil {
				// Deadline expired mid-apply: everything still unsettled
				// is requeued and reported Skipped below.
				release(cr)
				next = append(next, cr.b)
				continue
			}
			if cr.rep.Failure != nil {
				// The analysis phase contained a panic or hit its branch
				// deadline; report the refusal and move on.
				out.Stats.countFailure(cr.rep.Failure.Kind)
				if cr.res != nil {
					out.PairsTotal += cr.res.PairsProcessed
					out.Stats.QueriesReused += cr.res.QueriesReused
				}
				release(cr)
				out.Reports = append(out.Reports, cr.rep)
				continue
			}
			if cr.res == nil {
				// Not analyzable (or, defensively, the analysis declined).
				out.Reports = append(out.Reports, cr.rep)
				continue
			}
			if visitedDirty(cr.res, dirty, dirtyBits) {
				out.Stats.Reanalyses++
				release(cr)
				next = append(next, cr.b)
				continue
			}
			out.PairsTotal += cr.res.PairsProcessed
			out.Stats.QueriesReused += cr.res.QueriesReused
			if opts.Check {
				// Static cross-check: a demand-driven answer contradicting
				// the SCCP oracle refuses this conditional outright, before
				// any restructuring is attempted.
				if fail := w.crossCheck(cr); fail != nil {
					cr.rep.Failure = fail
					cr.rep.Err = fail
					out.Stats.countFailure(fail.Kind)
					release(cr)
					out.Reports = append(out.Reports, cr.rep)
					continue
				}
			}
			if !cr.apply {
				out.Stats.ClonesAvoided++
				release(cr)
				out.Reports = append(out.Reports, cr.rep)
				continue
			}
			// Attempt the restructuring on a copy-on-write fork so a
			// failure — including a panic or a gate violation — cannot
			// corrupt the working program, which is never written. Adopting
			// the fork is the commit point; every earlier exit rolls back by
			// discarding it.
			scratch := ir.Fork(w.prog)
			out.Stats.Clones++
			oc, carried, declined, fail := applyOne(w, scratch, cr)
			if testHookSettle != nil {
				testHookSettle(w, scratch, carried)
			}
			switch {
			case fail != nil:
				cr.rep.Failure = fail
				cr.rep.Err = fail
				out.Stats.countFailure(fail.Kind)
			case declined != nil:
				cr.rep.Err = declined
			default:
				cr.rep.Applied = true
				cr.rep.Removed = oc.BranchCopiesRemoved
				out.Optimized++
				dirtyBits = markChanged(dirty, dirtyBits, w.prog, scratch)
				w.adopt(scratch, carried)
				// Requeue branch copies created as a side effect of this
				// restructuring (including surviving copies of cr.b
				// itself), in ID order for determinism.
				for _, c := range sortedDescendants(oc) {
					if !queued[c] {
						queued[c] = true
						next = append(next, c)
					}
				}
			}
			release(cr)
			out.Reports = append(out.Reports, cr.rep)
		}
		out.Stats.ApplyWall += time.Since(t0)
		if memo != nil {
			// Publish this round's summary records and drop everything the
			// round's restructurings invalidated; the next round replays
			// only records valid for its snapshot.
			memo.Commit(dirty)
		}
		queue = append(append([]ir.NodeID(nil), overflow...), next...)
	}

	// Work cap reached or deadline expired with conditionals still queued:
	// report every still-live skipped branch instead of dropping it
	// silently, tagging deadline victims with a timeout failure.
	timedOut := ctx.Err() != nil
	for _, b := range queue {
		node := w.prog.Node(b)
		if node == nil || node.Kind != ir.NBranch {
			continue
		}
		rep := CondReport{
			Cond:       b,
			Line:       node.Line,
			Analyzable: node.Analyzable(),
			Skipped:    true,
		}
		if timedOut {
			f := &BranchFailure{Kind: FailTimeout, Cond: b, Line: node.Line,
				Msg: "driver deadline expired before this conditional was settled"}
			rep.Failure, rep.Err = f, f
			out.Stats.countFailure(FailTimeout)
		}
		out.Reports = append(out.Reports, rep)
		out.Truncated = true
	}
	out.Stats.PairsTotal = out.PairsTotal
	if memo != nil {
		out.Stats.SNEMemoEntries = memo.Entries()
		out.Stats.SNEMemoHits = memo.Hits()
		out.Stats.CacheBytes = memo.Bytes()
		out.Stats.SubtreesInvalidated = memo.Invalidated()
	}
	if opts.Fold {
		// The second optimizer: fold the residual conditionals the oracle
		// decides but the correlation rounds left behind. Runs before
		// finishCheck so the Check layer's end-of-run residual metric
		// reflects the folded program.
		runFoldPass(ctx, w, opts.MaxDuplication)
	}
	if opts.Check {
		w.finishCheck()
	}
	out.Stats.setRatios()
	// Every fork and fork parent of the working program is discarded, so
	// the result owns its nodes again and callers may write it in place.
	w.prog.Unshare()
	out.Program = w.prog
	return out
}

// release returns a settled conditional's pooled analysis state. Everything
// the driver keeps past this point (the report, counters) was copied out.
func release(cr *condResult) {
	if cr.res != nil {
		cr.res.Release()
	}
}

// applyOne performs one transactional restructuring attempt on the fork
// scratch. It returns the outcome to commit with the facts to carry, a
// graceful decline from Eliminate, or a typed failure (panic, validation,
// check or shadow-oracle violation) — in every non-commit case the caller
// simply discards the fork, which is the rollback.
func applyOne(w *working, scratch *ir.Program, cr *condResult) (oc *Outcome, carried *facts, declined error, fail *BranchFailure) {
	defer func() {
		if r := recover(); r != nil {
			oc, carried, declined = nil, nil, nil
			fail = panicFailure(cr.b, cr.rep.Line, r)
		}
	}()
	oc, err := Eliminate(scratch, cr.res)
	if err != nil {
		return nil, nil, err, nil
	}
	if testHookAfterApply != nil {
		if err := testHookAfterApply(scratch, cr.b); err != nil {
			return nil, nil, nil, &BranchFailure{Kind: FailValidate, Cond: cr.b, Line: cr.rep.Line,
				Msg: "injected validation failure", Err: err}
		}
	}
	if carried, fail = w.gate(scratch, false); fail != nil {
		fail.Cond, fail.Line = cr.b, cr.rep.Line
		return nil, nil, nil, fail
	}
	return oc, carried, nil, nil
}

// analyzeBatch runs the analysis phase for one round: every batched
// conditional is analyzed against the snapshot and gated, concurrently when
// workers > 1. The snapshot is never written, AnalyzeBranch keeps its state
// in the per-call run, and each worker writes only its own results slot, so
// the outcome is independent of scheduling. A panic during one branch's
// analysis is recovered into a timeout-safe typed failure on that branch
// alone; the per-branch deadline (DriverOptions.BranchTimeout) and the
// driver context interrupt propagation cooperatively.
func analyzeBatch(ctx context.Context, snapshot *ir.Program, batch []ir.NodeID,
	aopts analysis.Options, memo *analysis.SummaryMemo, opts DriverOptions,
	workers int, stats *DriverStats) []condResult {
	t0 := time.Now()
	an := analysis.NewWithMemo(snapshot, aopts, memo)
	results := make([]condResult, len(batch))
	analyzeOne := func(i int) {
		cr := &results[i]
		cr.b = batch[i]
		cr.rep = CondReport{Cond: cr.b}
		defer func() {
			if r := recover(); r != nil {
				f := panicFailure(cr.b, cr.rep.Line, r)
				cr.res, cr.apply = nil, false
				cr.rep.Failure, cr.rep.Err = f, f
			}
		}()
		node := snapshot.Node(cr.b)
		if node == nil || node.Kind != ir.NBranch {
			return
		}
		cr.live = true
		cr.rep.Line = node.Line
		if !node.Analyzable() {
			return
		}
		cr.rep.Analyzable = true
		if testHookAnalyze != nil {
			testHookAnalyze(snapshot, cr.b)
		}
		var interrupt func() bool
		if opts.BranchTimeout > 0 || ctx.Done() != nil {
			deadline := time.Now().Add(opts.BranchTimeout)
			interrupt = func() bool {
				if ctx.Err() != nil {
					return true
				}
				return opts.BranchTimeout > 0 && time.Now().After(deadline)
			}
		}
		res := an.AnalyzeBranchInterruptible(cr.b, interrupt)
		if res == nil {
			return
		}
		if res.Interrupted {
			f := &BranchFailure{Kind: FailTimeout, Cond: cr.b, Line: cr.rep.Line,
				Msg: "analysis deadline expired; pending queries resolved UNDEF"}
			cr.res = res
			cr.rep.PairsProcessed = res.PairsProcessed
			cr.rep.Failure, cr.rep.Err = f, f
			return
		}
		cr.res = res
		cr.rep.Answers = res.RootAnswers()
		cr.rep.Full = res.FullCorrelation()
		cr.rep.DupEstimate = res.DuplicationEstimate(snapshot)
		cr.rep.PairsProcessed = res.PairsProcessed

		cr.apply = res.HasCorrelation()
		if opts.FullOnly && !res.FullCorrelation() {
			cr.apply = false
		}
		if opts.MaxDuplication > 0 && cr.rep.DupEstimate > opts.MaxDuplication {
			cr.apply = false
		}
		if opts.Profile != nil {
			cr.rep.Benefit = res.EstimatedBenefit(opts.Profile)
			if opts.MinBenefitPerNode > 0 {
				denom := float64(cr.rep.DupEstimate)
				if denom < 1 {
					denom = 1
				}
				if float64(cr.rep.Benefit)/denom < opts.MinBenefitPerNode {
					cr.apply = false
				}
			}
		}
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	if workers <= 1 {
		for i := range batch {
			analyzeOne(i)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					analyzeOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range results {
		if results[i].rep.Analyzable {
			stats.Analyses++
		}
	}
	stats.AnalysisWall += time.Since(t0)
	return results
}

// visitedDirty reports whether the analysis visited any node changed by a
// restructuring applied earlier in the round (the visited set is the
// paper's Q[n] domain: exactly the nodes the demand-driven analysis
// reached). The intersection is a word-wise AND of the analysis' visited
// bitset with the round's dirty bitset — O(nodes/64) regardless of how
// large the dirty set or the visited set grows, where the old
// min(|dirty|, |visited|) scan degenerated on restructurings that dirtied
// thousands of nodes. Nodes created after the snapshot lie beyond the
// visited bitset and can never have been visited, so truncating the AND to
// the shorter slice is exact.
func visitedDirty(res *analysis.Result, dirty map[ir.NodeID]bool, dirtyBits []uint64) bool {
	if len(dirty) == 0 {
		return false
	}
	vis := res.VisitedBits()
	n := len(vis)
	if len(dirtyBits) < n {
		n = len(dirtyBits)
	}
	for i := 0; i < n; i++ {
		if vis[i]&dirtyBits[i] != 0 {
			return true
		}
	}
	return false
}

// markChanged records every node that differs between the working program
// and its adopted fork: created, deleted, retyped, or re-wired nodes all
// count, so a snapshot analysis that visited none of them would compute the
// same result on the new program (its demand-driven traversal can only
// reach changed program parts through a changed node). Only the fork's
// touched nodes can differ — every other node is shared with the working
// program — so only they are compared. Changed nodes are recorded twice —
// in the dirty map (consumed by the memo Commit) and in the dirty bitset
// (consumed by visitedDirty) — and the grown bitset is returned.
func markChanged(dirty map[ir.NodeID]bool, dirtyBits []uint64, before, after *ir.Program) []uint64 {
	words := (len(after.Nodes) + 63) / 64
	for len(dirtyBits) < words {
		dirtyBits = append(dirtyBits, 0)
	}
	for _, id := range after.Touched() {
		var an *ir.Node
		if int(id) < len(before.Nodes) {
			an = before.Nodes[id]
		}
		if nodeChanged(an, after.Nodes[id]) {
			dirty[id] = true
			dirtyBits[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	return dirtyBits
}

func nodeChanged(a, b *ir.Node) bool {
	if (a == nil) != (b == nil) {
		return true
	}
	if a == nil {
		return false
	}
	if a.Kind != b.Kind || a.Proc != b.Proc || a.Dst != b.Dst || a.RHS != b.RHS ||
		a.CondVar != b.CondVar || a.CondOp != b.CondOp || a.CondRHS != b.CondRHS ||
		a.AVar != b.AVar || a.APred != b.APred || a.Callee != b.Callee ||
		a.Ptr != b.Ptr || a.Idx != b.Idx || a.Val != b.Val ||
		a.Synthetic != b.Synthetic || a.Line != b.Line {
		return true
	}
	return !slices.Equal(a.Succs, b.Succs) || !slices.Equal(a.Preds, b.Preds) ||
		!slices.Equal(a.Args, b.Args)
}

// sortedDescendants flattens an Outcome's branch-descendant map into ID
// order. Map iteration order is randomized, so requeueing straight from the
// map would make the queue — and with it the report order — nondeterministic.
func sortedDescendants(oc *Outcome) []ir.NodeID {
	var all []ir.NodeID
	for _, copies := range oc.BranchDescendants {
		all = append(all, copies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
