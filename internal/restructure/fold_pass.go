package restructure

import (
	"context"
	"fmt"
	"time"

	"icbe/internal/check"
	"icbe/internal/fold"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// runFoldPass is the driver's second optimizer (DriverOptions.Fold): after
// the correlation rounds settle, the CCP oracle's fact table (internal/fold)
// names the residual conditionals it can decide, and each one is folded —
// whole when constant on every executable in-edge, per-edge by redirection
// for edge-split residuals — inside the same transactional harness the
// correlation applies use. Every attempt runs on a fork (ir.Fork), is
// pruned, and must pass the shared gate sequence (working.gate: ir.Validate,
// the invariant passes against the working report, and differential shadow
// execution, always, even when DriverOptions.Verify is off) and a post-fold
// oracle re-check that vetoes any fold creating a residual that was not
// there before. A veto discards the fork and counts a FailFold; the working
// program is never replaced by a program that failed a gate.
func runFoldPass(ctx context.Context, w *working, maxDuplication int) {
	t0 := time.Now()
	stats := w.stats
	defer func() { stats.FoldWall += time.Since(t0) }()

	table := fold.Compute(w.prog, w.report().SCCP)
	stats.SCCPResidualBefore = table.Residual

	// Entries that already have no predecessors when the pass starts were
	// uncalled on input (or intentionally left by the correlation rounds);
	// the fold pass's prune must not delete them, mirroring the
	// restructurer's initiallyDead contract.
	initiallyDead := make(map[ir.NodeID]bool)
	for _, pr := range w.prog.Procs {
		if pr == nil {
			continue
		}
		for _, e := range pr.Entries {
			if n := w.prog.Node(e); n != nil && len(n.Preds) == 0 {
				initiallyDead[e] = true
			}
		}
	}

	// Adopted folds are budgeted like the driver's work queue: redirections
	// move edges forward through the graph and on adversarial loop shapes
	// two branches can trade the same in-edge back and forth indefinitely,
	// each exchange a semantically sound adopt.
	budget := 8*len(table.Branches) + 64

	for ctx.Err() == nil && budget > 0 {
		applied := false
		for i := range table.Branches {
			bf := &table.Branches[i]
			if !bf.Foldable() || ctx.Err() != nil {
				continue
			}
			if bf.Class == fold.ClassEdgeSplit && maxDuplication > 0 &&
				outcomeClasses(bf) > maxDuplication {
				// A Breitner-style duplication scheme would materialize one
				// copy of the conditional per deciding outcome class; the
				// degenerate redirection adds zero operations, but the
				// driver's duplication budget still gates the estimate.
				continue
			}
			scratch := ir.Fork(w.prog)
			stats.Clones++
			redirected, changed, carried, fail := foldOne(w, scratch, bf, initiallyDead)
			if testHookSettle != nil {
				testHookSettle(w, scratch, carried)
			}
			if !changed {
				continue
			}
			stats.FoldAttempted++
			if fail != nil {
				stats.countFailure(fail.Kind)
				continue
			}
			w.adopt(scratch, carried)
			stats.FoldApplied++
			stats.FoldDuplicated += redirected
			applied = true
			budget--
			table = fold.Compute(w.prog, w.report().SCCP)
			break
		}
		if !applied {
			break
		}
	}
	stats.SCCPResidualAfter = table.Residual
}

// foldOne performs one transactional fold attempt on the fork scratch: the
// rewrite, a prune, the shared gates and the post-fold re-check. It returns
// the facts to carry on success; every non-nil failure means the caller
// discards the fork — that is the rollback. changed is false when the
// rewriter had nothing safe to do for this row (no attempt happened).
func foldOne(w *working, scratch *ir.Program, bf *fold.BranchFact,
	initiallyDead map[ir.NodeID]bool) (redirected int, changed bool, carried *facts, fail *BranchFailure) {
	defer func() {
		if r := recover(); r != nil {
			// The scratch may be arbitrarily damaged; report the attempt and
			// let the caller discard it.
			redirected, changed, carried = 0, true, nil
			fail = panicFailure(bf.Branch, bf.Line, r)
		}
	}()
	redirected, changed = fold.Apply(scratch, bf)
	if !changed {
		return 0, false, nil, nil
	}
	pruneProgram(scratch, initiallyDead, nil)
	carried, fail = w.gate(scratch, true)
	if fail == nil {
		if id, bad := newResidual(w.prog, scratch, w.report().SCCP, carried.rep.SCCP); bad {
			fail = &BranchFailure{Msg: fmt.Sprintf("fold created a new residual constant branch at node %d", id)}
		}
	}
	if fail != nil {
		fail.Kind, fail.Cond, fail.Line = FailFold, bf.Branch, bf.Line
		return redirected, true, nil, fail
	}
	return redirected, true, carried, nil
}

// newResidual reports an analyzable branch the oracle decides on the folded
// program but did not decide before the fold — the post-fold re-check's
// veto condition. Edge redirections remove meet operands from the folded
// branch's successors and can legitimately increase the oracle's precision
// elsewhere, so the veto is conservative: it may reject a beneficial fold,
// never adopt one that moves the residual count the wrong way.
func newResidual(before, after *ir.Program, sBefore, sAfter *check.SCCP) (ir.NodeID, bool) {
	found := ir.NoNode
	after.LiveNodes(func(n *ir.Node) {
		if found != ir.NoNode || n.Kind != ir.NBranch || !n.Analyzable() {
			return
		}
		if sAfter.BranchOutcome(n.ID) == pred.Unknown {
			return
		}
		bn := before.Node(n.ID)
		if bn != nil && bn.Kind == ir.NBranch && bn.Analyzable() &&
			sBefore.BranchOutcome(n.ID) != pred.Unknown {
			return // was already residual before the fold
		}
		found = n.ID
	})
	return found, found != ir.NoNode
}

// outcomeClasses counts the distinct outcomes the live deciding in-edges of
// an edge-split row imply — the number of conditional copies a
// duplication-based scheme would create.
func outcomeClasses(bf *fold.BranchFact) int {
	var t, f bool
	for _, e := range bf.Edges {
		if !e.Live {
			continue
		}
		switch e.Outcome {
		case pred.True:
			t = true
		case pred.False:
			f = true
		}
	}
	n := 0
	if t {
		n++
	}
	if f {
		n++
	}
	return n
}
