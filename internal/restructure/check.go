package restructure

import (
	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/ir"
)

// testHookCheckAnswers lets tests substitute the answer set the cross-check
// sees for one conditional, simulating a buggy backward analysis without
// having one (see SetFaultInjection). It must be nil outside tests.
var testHookCheckAnswers func(p *ir.Program, b ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet

// crossCheck compares one analyzed conditional's root answer set against the
// SCCP oracle of the working report before any restructuring is attempted
// (DriverOptions.Check). A disagreement is a
// contained FailCheck: the conditional is refused, everything else proceeds.
func (w *working) crossCheck(cr *condResult) *BranchFailure {
	ans := cr.rep.Answers
	if testHookCheckAnswers != nil {
		ans = testHookCheckAnswers(w.prog, cr.b, ans)
	}
	verdict, cf := check.CrossCheck(w.prog, w.report().SCCP, cr.b, ans)
	switch verdict {
	case check.VerdictAgree:
		w.stats.SCCPAgreements++
		w.stats.SCCPDecided++
	case check.VerdictICBEOnly:
		// A decided claim the oracle could not grade: part of the recall
		// denominator but neither an agreement nor a veto.
		w.stats.SCCPDecided++
	case check.VerdictVacuous:
		w.stats.SCCPVacuous++
	case check.VerdictDisagree:
		w.stats.SCCPDisagreements++
		w.stats.SCCPDecided++
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "demand-driven answer contradicts the SCCP oracle", Err: cf}
	}
	return nil
}

// finishCheck computes the check layer's end-of-run counters: the residual
// metric (analyzable branches of the final program the oracle still
// decides — branches ICBE could have eliminated) and the residual invariant
// finding count.
func (w *working) finishCheck() {
	rep := w.report()
	w.stats.SCCPResidual = check.RecallCount(w.prog, rep.SCCP)
	w.stats.CheckFindingsPost = len(rep.Findings)
}
