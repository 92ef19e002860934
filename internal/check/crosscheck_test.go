package check

import (
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// answersOf runs the demand-driven backward analysis on a branch.
func answersOf(t *testing.T, p *ir.Program, b *ir.Node) analysis.AnswerSet {
	t.Helper()
	res := analysis.New(p, analysis.DefaultOptions()).AnalyzeBranch(b.ID)
	if res == nil {
		t.Fatalf("AnalyzeBranch returned nil for branch %d", b.ID)
	}
	return res.RootAnswers()
}

func TestCrossCheckAgree(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 5)
	v, cf := CrossCheck(p, s, b.ID, answersOf(t, p, b))
	if v != VerdictAgree || cf != nil {
		t.Errorf("verdict = %v (%v), want agree", v, cf)
	}
}

func TestCrossCheckUndecided(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 5) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 5)
	v, cf := CrossCheck(p, s, b.ID, answersOf(t, p, b))
	if v != VerdictUndecided || cf != nil {
		t.Errorf("verdict = %v (%v), want undecided", v, cf)
	}
}

func TestCrossCheckVacuous(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			var y = input();
			if (x == 4) {
				if (y == 1) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "y", pred.Eq, 1)
	if s.Reachable(b.ID) {
		t.Fatalf("inner branch should be SCCP-unreachable (guarded by x == 4 with x = 5)")
	}
	// Whatever the backward analysis says about the dead branch, the
	// cross-check must not escalate.
	for _, ans := range []analysis.AnswerSet{analysis.AnsTrue, analysis.AnsFalse, analysis.AnsTrue | analysis.AnsUndef} {
		v, cf := CrossCheck(p, s, b.ID, ans)
		if v != VerdictVacuous || cf != nil {
			t.Errorf("verdict for %v = %v (%v), want vacuous", ans, v, cf)
		}
	}
}

func TestCrossCheckICBEOnly(t *testing.T) {
	// x = input(); if (x != 5) { if (x == 5) ... } — the inner branch is
	// fully correlated (always false on its incoming edge), but the edge
	// assertion x != 5 pokes no representable hole in x's ⊥ interval, so the
	// oracle cannot decide it.
	p := build(t, `
		func main() {
			var x = input();
			if (x != 5) {
				if (x == 5) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	branches := decidableBranches(p, "x", pred.Eq, 5)
	if len(branches) != 1 {
		t.Fatalf("want 1 branch on x == 5, got %d", len(branches))
	}
	inner := branches[0]
	ans := answersOf(t, p, inner)
	if ans != analysis.AnsFalse {
		t.Fatalf("inner branch answers = %v, want {F} (correlated)", ans)
	}
	v, cf := CrossCheck(p, s, inner.ID, ans)
	if v != VerdictICBEOnly || cf != nil {
		t.Errorf("verdict = %v (%v), want icbe-only", v, cf)
	}
}

// decidableBranches returns the analyzable branches matching the predicate in
// node-id order.
func decidableBranches(p *ir.Program, varSuffix string, op pred.Op, c int64) []*ir.Node {
	var out []*ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && n.Analyzable() &&
			strings.HasSuffix(p.VarName(n.CondVar()), varSuffix) && n.CondOp() == op && n.CondRHS().Const == c {
			out = append(out, n)
		}
	})
	return out
}

func TestCrossCheckSCCPOnly(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 5)
	// Simulate a backward analysis that gave up (mixed answer set): the
	// oracle still decides, which is the recall signal, not a failure.
	v, cf := CrossCheck(p, s, b.ID, analysis.AnsTrue|analysis.AnsUndef)
	if v != VerdictSCCPOnly || cf != nil {
		t.Errorf("verdict = %v (%v), want sccp-only", v, cf)
	}
}

func TestCrossCheckDisagree(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 5)
	// A (hypothetically buggy) backward analysis answering {F} contradicts
	// the oracle's proved "always true".
	v, cf := CrossCheck(p, s, b.ID, analysis.AnsFalse)
	if v != VerdictDisagree {
		t.Fatalf("verdict = %v, want disagree", v)
	}
	if cf == nil {
		t.Fatalf("disagreement without CheckFailure")
	}
	if cf.Branch != b.ID || cf.Outcome != pred.True || cf.Answers != analysis.AnsFalse {
		t.Errorf("CheckFailure = %+v", cf)
	}
	msg := cf.Error()
	for _, want := range []string{"check:", "contradicts", "SCCP"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

func TestCrossCheckNonBranch(t *testing.T) {
	p := build(t, `func main() { print(1); }`)
	s := RunSCCP(p)
	pr := p.Procs[p.MainProc]
	v, cf := CrossCheck(p, s, pr.Entries[0], analysis.AnsTrue)
	if v != VerdictUndecided || cf != nil {
		t.Errorf("verdict for non-branch = %v (%v), want undecided", v, cf)
	}
	v, cf = CrossCheck(p, s, ir.NoNode, analysis.AnsTrue)
	if v != VerdictUndecided || cf != nil {
		t.Errorf("verdict for NoNode = %v (%v), want undecided", v, cf)
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		VerdictUndecided: "undecided",
		VerdictAgree:     "agree",
		VerdictVacuous:   "vacuous",
		VerdictICBEOnly:  "icbe-only",
		VerdictSCCPOnly:  "sccp-only",
		VerdictDisagree:  "disagree",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}
