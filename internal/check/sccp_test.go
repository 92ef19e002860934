package check

import (
	"strings"
	"testing"
	"unsafe"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := ir.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

// findBranch locates the unique analyzable branch whose condition variable
// name has the given suffix and whose predicate matches.
func findBranch(t *testing.T, p *ir.Program, varSuffix string, op pred.Op, c int64) *ir.Node {
	t.Helper()
	var found *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind != ir.NBranch || !n.Analyzable() {
			return
		}
		if strings.HasSuffix(p.VarName(n.CondVar()), varSuffix) && n.CondOp() == op && n.CondRHS().Const == c {
			if found != nil {
				t.Fatalf("multiple branches match %s %s %d", varSuffix, op, c)
			}
			found = n
		}
	})
	if found == nil {
		t.Fatalf("no branch matches %s %s %d\n%s", varSuffix, op, c, p.Dump())
	}
	return found
}

func findVar(t *testing.T, p *ir.Program, suffix string) ir.VarID {
	t.Helper()
	for _, v := range p.Vars {
		if v != nil && strings.HasSuffix(v.Name, suffix) {
			return v.ID
		}
	}
	t.Fatalf("no variable with suffix %q", suffix)
	return ir.NoVar
}

// TestCellSize bounds a state cell: the SCCP slabs, one cell per variable
// slot per program point, are a quarter of a full-tier optimize's
// allocated bytes.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 24 {
		t.Errorf("unsafe.Sizeof(cell{}) = %d, want at most 24", got)
	}
}

func TestSCCPDecidesConstantBranch(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 5)
	if got := s.BranchOutcome(b.ID); got != pred.True {
		t.Errorf("BranchOutcome = %v, want true", got)
	}
	if v := s.ValueAt(b.ID, b.CondVar()); v != constant(5) {
		t.Errorf("ValueAt(branch, x) = %s, want 5", v)
	}
	if got := RecallCount(p, s); got != 1 {
		t.Errorf("RecallCount = %d, want 1", got)
	}
	// The false arm must be unreachable: exactly one print executes.
	reachPrints := 0
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NPrint && s.Reachable(n.ID) {
			reachPrints++
		}
	})
	if reachPrints != 1 {
		t.Errorf("reachable prints = %d, want 1 (false arm pruned)", reachPrints)
	}
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && n.ID != b.ID && s.BranchOutcome(n.ID) != pred.Unknown {
			t.Errorf("branch %d decided %v, want only branch %d decided", n.ID, s.BranchOutcome(n.ID), b.ID)
		}
	})
}

func TestSCCPInputIsBottom(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 0)
	if got := s.BranchOutcome(b.ID); got != pred.Unknown {
		t.Errorf("BranchOutcome = %v, want unknown", got)
	}
	if v := s.ValueAt(b.ID, b.CondVar()); !v.IsBottom() {
		t.Errorf("input-fed variable not ⊥: %v", v)
	}
	reachPrints := 0
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NPrint && s.Reachable(n.ID) {
			reachPrints++
		}
	})
	if reachPrints != 2 {
		t.Errorf("reachable prints = %d, want 2 (both arms live)", reachPrints)
	}
}

func TestSCCPFormalMeetSingleCallSite(t *testing.T) {
	p := build(t, `
		func f(a) {
			if (a == 3) { print(1); } else { print(2); }
		}
		func main() { f(3); }
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "a", pred.Eq, 3)
	if got := s.BranchOutcome(b.ID); got != pred.True {
		t.Errorf("BranchOutcome = %v, want true (single call site passes 3)", got)
	}
}

func TestSCCPFormalMeetConflictingCallSites(t *testing.T) {
	p := build(t, `
		func f(a) {
			if (a == 3) { print(1); } else { print(2); }
		}
		func main() { f(3); f(4); }
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "a", pred.Eq, 3)
	if got := s.BranchOutcome(b.ID); got != pred.Unknown {
		t.Errorf("BranchOutcome = %v, want unknown (two call sites conflict)", got)
	}
	if v := s.ValueAt(b.ID, b.CondVar()); !v.IsBottom() {
		t.Errorf("formal with conflicting arguments not ⊥: %v", v)
	}
}

func TestSCCPReturnValue(t *testing.T) {
	p := build(t, `
		func f() { return 7; }
		func main() {
			var x = f();
			if (x == 7) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 7)
	if got := s.BranchOutcome(b.ID); got != pred.True {
		t.Errorf("BranchOutcome = %v, want true (return value propagates)", got)
	}
}

func TestSCCPGlobalInit(t *testing.T) {
	p := build(t, `
		var g = 9;
		func main() {
			if (g == 9) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "g", pred.Eq, 9)
	if got := s.BranchOutcome(b.ID); got != pred.True {
		t.Errorf("BranchOutcome = %v, want true (global init seeds the cell)", got)
	}
}

func TestSCCPGlobalReassigned(t *testing.T) {
	p := build(t, `
		var g = 9;
		func main() {
			g = input();
			if (g == 9) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "g", pred.Eq, 9)
	if got := s.BranchOutcome(b.ID); got != pred.Unknown {
		t.Errorf("BranchOutcome = %v, want unknown (reassigned global)", got)
	}
}

func TestSCCPDivByConstantZero(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 10;
			var y = 0;
			var z = x / y;
			if (z == 0) { print(1); } else { print(2); }
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "z", pred.Eq, 0)
	// The division faults at runtime; the oracle must not model a value for
	// it (and must not crash folding it).
	if got := s.BranchOutcome(b.ID); got != pred.Unknown {
		t.Errorf("BranchOutcome = %v, want unknown (div by zero is ⊥)", got)
	}
	if v := s.ValueAt(b.ID, b.CondVar()); !v.IsBottom() {
		t.Errorf("div-by-zero result not ⊥: %v", v)
	}
}

func TestSCCPLoopTerminates(t *testing.T) {
	p := build(t, `
		func main() {
			var i = 0;
			var s = 0;
			while (i < 3) { i = i + 1; s = s + 2; }
			if (i >= 3) { print(s); }
		}
	`)
	s := RunSCCP(p)
	// At the loop test the counter meets 0 from the entry with 1 from the
	// back edge: incomparable constants, so ⊥.
	head := findBranch(t, p, ".i", pred.Lt, 3)
	if v := s.ValueAt(head.ID, head.CondVar()); !v.IsBottom() {
		t.Errorf("loop counter cell = %v, want ⊥", v)
	}
}

func TestSCCPRecursionTerminates(t *testing.T) {
	p := build(t, `
		func down(n) {
			if (n <= 0) { return 0; }
			return down(n - 1);
		}
		func main() { print(down(4)); }
	`)
	s := RunSCCP(p)
	// Just a termination and sanity check: the recursive call executes.
	b := findBranch(t, p, "n", pred.Le, 0)
	if !s.Reachable(b.ID) {
		t.Errorf("recursive procedure body unreachable")
	}
}

func TestSCCPDeadArmCallUnreachable(t *testing.T) {
	p := build(t, `
		func f() { print(42); return 0; }
		func main() {
			var x = 5;
			if (x == 5) { print(1); } else { f(); }
		}
	`)
	s := RunSCCP(p)
	pr := p.ProcByName("f")
	if pr == nil || len(pr.Entries) == 0 {
		t.Fatalf("no proc f")
	}
	if s.Reachable(pr.Entries[0]) {
		t.Errorf("callee of a pruned arm is reachable")
	}
}

func TestSCCPMustFailAssert(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			var y = 7;
			if (x == 5) { print(1); }
		}
	`)
	// Retarget the true-arm assertion (x == 5) at y, whose cell is the
	// constant 7: the assertion stays reachable (the branch is unknown) but
	// can never hold — the corruption signature sccp-consistency detects.
	y := findVar(t, p, ".y")
	var assert *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NAssert && n.APred().Op == pred.Eq && n.APred().C == 5 {
			assert = n
		}
	})
	if assert == nil {
		t.Fatalf("no (== 5) assertion\n%s", p.Dump())
	}
	assert.SetAssert(y, assert.APred())
	s := RunSCCP(p)
	fails := s.MustFailAsserts()
	if len(fails) != 1 || fails[0] != assert.ID {
		t.Fatalf("MustFailAsserts = %v, want [%d]", fails, assert.ID)
	}
	// Propagation stops at the failing assertion: its successor must not be
	// reachable through it alone.
	rep := AnalyzeInvariants(p)
	if rep.Count("sccp-consistency") != 1 {
		t.Errorf("sccp-consistency findings = %d, want 1", rep.Count("sccp-consistency"))
	}
}

func TestSCCPValueString(t *testing.T) {
	if top().String() != "⊤" || bottom().String() != "⊥" || constant(3).String() != "3" {
		t.Errorf("Value.String: %s %s %s", top(), bottom(), constant(3))
	}
	if meet(top(), constant(2)) != constant(2) {
		t.Errorf("meet(⊤, 2) != 2")
	}
	if meet(constant(2), constant(3)) != bottom() {
		t.Errorf("meet(2, 3) != ⊥")
	}
	if meet(constant(2), constant(2)) != constant(2) {
		t.Errorf("meet(2, 2) != 2")
	}
}
