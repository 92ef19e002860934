package restructure

import (
	"icbe/internal/analysis"
	"icbe/internal/ir"
)

// AllFailureKinds enumerates every FailureKind the driver can contain, in
// gating order. The serving layer's fault-kind table test iterates it, so a
// kind added here fails that test until it has a fault case (or a skip
// naming why no hook can force it).
func AllFailureKinds() []FailureKind {
	return []FailureKind{
		FailPanic, FailValidate, FailDiffMismatch, FailOpGrowth, FailTimeout, FailCheck, FailFold,
	}
}

// FaultInjection bundles the driver's fault-injection hooks so tests outside
// this package (the serving layer's fault-kind and chaos tests) can force
// each FailureKind. Every field may be nil. The hooks are process globals read by
// concurrent analysis workers without synchronization: install them before
// any driver run starts, clear them after every run has finished, and never
// use them outside tests.
type FaultInjection struct {
	// Analyze runs at the start of every branch analysis against the
	// round's snapshot. Panicking here exercises FailPanic containment; the
	// snapshot lets a hook target only branches of a marked program.
	Analyze func(snapshot *ir.Program, b ir.NodeID)
	// AfterApply runs on the scratch fork after a successful Eliminate,
	// before the gating oracles; a non-nil error is treated as a validation
	// failure (FailValidate). The fork shares every node it has not written
	// with the working program (ir.Fork), so the hook must write nodes only
	// through the ir mutators or scratch.Mut, and procedure headers through
	// scratch.MutProc; a direct write through scratch.Node, LiveNodes or
	// Procs lands in the working program and its input, and once
	// the working program is settled it also escapes ir.Validate, which
	// then checks only the nodes the fork touched and their neighbours. A
	// fork the hook leaves valid but not at a prune fixpoint (an orphaned
	// node, say) must fail a later gate: adopting it would break the
	// settled program's contract that later attempts' region passes rely
	// on.
	AfterApply func(scratch *ir.Program, cond ir.NodeID) error
	// CheckAnswers substitutes the answer set the static cross-check sees
	// for one conditional, simulating a buggy backward analysis (FailCheck)
	// without having one.
	CheckAnswers func(p *ir.Program, b ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet
}

// SetFaultInjection installs the given hooks, replacing any previous set.
// Pass the zero value to clear. Test-only; see FaultInjection for the
// synchronization contract.
func SetFaultInjection(f FaultInjection) {
	testHookAnalyze = f.Analyze
	testHookAfterApply = f.AfterApply
	testHookCheckAnswers = f.CheckAnswers
}
