package restructure

import (
	"time"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/ir"
)

// testHookCheckAnswers lets tests substitute the answer set the cross-check
// sees for one conditional, simulating a buggy backward analysis without
// having one (see SetFaultInjection). It must be nil outside tests.
var testHookCheckAnswers func(p *ir.Program, b ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet

// checkGate is the static verification layer of the driver
// (DriverOptions.Check): the forward SCCP oracle cross-checks every
// demand-driven answer before its restructuring is attempted, and the
// invariant lint passes re-run on each attempt's fork, vetoing any apply that
// raises a finding the working program did not have. Like the shadow oracle
// it gates transactionally — a veto discards the fork — but it is
// static: no inputs are run, so it also covers paths shadow vectors miss.
type checkGate struct {
	stats *DriverStats
	// prog/sccp cache the oracle for the current working program revision;
	// baseline holds its per-pass invariant finding counts, the reference a
	// fork must not exceed.
	prog     *ir.Program
	sccp     *check.SCCP
	baseline map[string]int
	// pending holds the fork's report between the gate check and
	// the driver's commit, so adoption reuses it instead of re-analyzing.
	pendingProg     *ir.Program
	pendingSCCP     *check.SCCP
	pendingBaseline map[string]int
}

// newCheckGate analyzes the input working program and records its invariant
// baseline.
func newCheckGate(work *ir.Program, stats *DriverStats) *checkGate {
	g := &checkGate{stats: stats}
	rep := g.analyze(work)
	g.prog, g.sccp, g.baseline = work, rep.SCCP, rep.PerPass
	stats.CheckFindingsPre = len(rep.Findings)
	return g
}

func (g *checkGate) analyze(p *ir.Program) *check.Report {
	t0 := time.Now()
	rep := check.AnalyzeInvariants(p)
	g.stats.CheckRuns++
	g.stats.CheckWall += time.Since(t0)
	return rep
}

// sccpFor returns the oracle for the given working-program revision,
// recomputing the cache when the program changed under the gate.
func (g *checkGate) sccpFor(p *ir.Program) *check.SCCP {
	if g.prog != p {
		rep := g.analyze(p)
		g.prog, g.sccp, g.baseline = p, rep.SCCP, rep.PerPass
	}
	return g.sccp
}

// crossCheck compares one analyzed conditional's root answer set against the
// oracle before any restructuring is attempted. A disagreement is a
// contained FailCheck: the conditional is refused, everything else proceeds.
func (g *checkGate) crossCheck(work *ir.Program, cr *condResult) *BranchFailure {
	ans := cr.rep.Answers
	if testHookCheckAnswers != nil {
		ans = testHookCheckAnswers(work, cr.b, ans)
	}
	verdict, cf := check.CrossCheck(work, g.sccpFor(work), cr.b, ans)
	switch verdict {
	case check.VerdictAgree:
		g.stats.SCCPAgreements++
		g.stats.SCCPDecided++
	case check.VerdictICBEOnly:
		// A decided claim the oracle could not grade: part of the recall
		// denominator but neither an agreement nor a veto.
		g.stats.SCCPDecided++
	case check.VerdictVacuous:
		g.stats.SCCPVacuous++
	case check.VerdictDisagree:
		g.stats.SCCPDisagreements++
		g.stats.SCCPDecided++
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "demand-driven answer contradicts the SCCP oracle", Err: cf}
	}
	return nil
}

// checkApply runs the invariant passes on the attempt's fork and vetoes the
// apply when any pass reports more findings than the working program's
// baseline. On success the scratch report is stashed for adopt.
func (g *checkGate) checkApply(scratch *ir.Program, cr *condResult) *BranchFailure {
	rep := g.analyze(scratch)
	// Registry order, not map order, so the reported pass is deterministic
	// when several regress at once.
	for _, p := range check.Passes() {
		pass := p.Name()
		n, ok := rep.PerPass[pass]
		if !ok || n <= g.baseline[pass] {
			continue
		}
		f, _ := rep.FirstFinding(pass)
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "restructured program raised " + pass + " finding: " + f.Msg}
	}
	g.pendingProg, g.pendingSCCP, g.pendingBaseline = scratch, rep.SCCP, rep.PerPass
	return nil
}

// adopt promotes the stashed scratch report to the gate's baseline when the
// driver adopts that fork as the new working program.
func (g *checkGate) adopt(work *ir.Program) {
	if g.pendingProg == work {
		g.prog, g.sccp, g.baseline = work, g.pendingSCCP, g.pendingBaseline
	}
	g.pendingProg, g.pendingSCCP, g.pendingBaseline = nil, nil, nil
}

// finish computes the end-of-run counters: the recall ratio (graded fraction
// of the decided, non-vacuous claims), the residual metric (analyzable
// branches of the final program the oracle still decides — branches ICBE
// could have eliminated), and the residual invariant finding count.
func (g *checkGate) finish(work *ir.Program) {
	s := g.sccpFor(work)
	if g.stats.SCCPDecided > 0 {
		g.stats.SCCPRecall = float64(g.stats.SCCPAgreements+g.stats.SCCPDisagreements) /
			float64(g.stats.SCCPDecided)
	}
	g.stats.SCCPResidual = check.RecallCount(work, s)
	total := 0
	for _, n := range g.baseline {
		total += n
	}
	g.stats.CheckFindingsPost = total
}
