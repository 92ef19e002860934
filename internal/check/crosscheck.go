package check

import (
	"fmt"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Verdict classifies one conditional's cross-check between the
// demand-driven backward analysis and the forward SCCP oracle.
type Verdict int

const (
	// VerdictUndecided: neither analysis decided the branch outcome.
	VerdictUndecided Verdict = iota
	// VerdictAgree: both analyses decided the outcome and agree.
	VerdictAgree
	// VerdictVacuous: SCCP proved the branch unreachable, so any backward
	// answer is vacuously consistent (it quantifies over incoming paths,
	// of which none execute).
	VerdictVacuous
	// VerdictICBEOnly: the backward analysis proved a full-correlation
	// answer the forward oracle cannot see — correlations the
	// branch-sensitive lattice does not represent (e.g. a != guard pokes no
	// hole in an interval). ICBE's path-sensitivity advantage, not a defect.
	VerdictICBEOnly
	// VerdictSCCPOnly: the oracle decided a branch the backward analysis
	// did not fully decide — the recall gap the driver counts.
	VerdictSCCPOnly
	// VerdictDisagree: both analyses decided the outcome and contradict
	// each other. One of them is wrong; the driver treats this as a
	// contained failure.
	VerdictDisagree
)

func (v Verdict) String() string {
	switch v {
	case VerdictUndecided:
		return "undecided"
	case VerdictAgree:
		return "agree"
	case VerdictVacuous:
		return "vacuous"
	case VerdictICBEOnly:
		return "icbe-only"
	case VerdictSCCPOnly:
		return "sccp-only"
	case VerdictDisagree:
		return "disagree"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// CheckFailure is a typed contradiction between the backward analysis'
// full-correlation answer and the forward oracle's proof at one
// conditional. It implements error.
type CheckFailure struct {
	// Branch and Line identify the conditional.
	Branch ir.NodeID
	Line   int
	// Answers is the backward analysis' root answer set; Outcome is the
	// oracle's proved branch outcome.
	Answers analysis.AnswerSet
	Outcome pred.Outcome
}

func (f *CheckFailure) Error() string {
	return fmt.Sprintf("check: branch %d (line %d): demand-driven answer %s contradicts SCCP-proved outcome %s",
		int(f.Branch), f.Line, f.Answers, f.Outcome)
}

// CrossCheck compares the backward analysis' root answer set for one
// conditional against the oracle's forward facts. The backward analysis
// claims an outcome only when its answer set is a full single answer ({T}
// or {F}: the outcome is decided along every incoming path); the oracle
// claims one when the comparison folds over the condition operands' entry
// elements (constants or disjoint/contained intervals) at a reachable
// branch. A disagreement returns a non-nil *CheckFailure.
func CrossCheck(p *ir.Program, s *SCCP, branch ir.NodeID, answers analysis.AnswerSet) (Verdict, *CheckFailure) {
	n := p.Node(branch)
	if n == nil || n.Kind != ir.NBranch {
		return VerdictUndecided, nil
	}
	if !s.Reachable(branch) {
		return VerdictVacuous, nil
	}
	claim := pred.Unknown
	switch answers {
	case analysis.AnsTrue:
		claim = pred.True
	case analysis.AnsFalse:
		claim = pred.False
	}
	outcome := s.BranchOutcome(branch)
	switch {
	case outcome == pred.Unknown && claim == pred.Unknown:
		return VerdictUndecided, nil
	case outcome == pred.Unknown:
		return VerdictICBEOnly, nil
	case claim == pred.Unknown:
		return VerdictSCCPOnly, nil
	case outcome == claim:
		return VerdictAgree, nil
	}
	return VerdictDisagree, &CheckFailure{Branch: branch, Line: int(n.Line), Answers: answers, Outcome: outcome}
}
