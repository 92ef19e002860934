package check

import (
	"testing"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// The tests in this file pin the branch-sensitive features of the CCP
// engine one by one: branch-edge assertions, copy-propagation groups,
// interval cells from byte()/bounds, and constant-shift folding. Each uses
// input() so the tested variable is ⊥ to any flow-insensitive lattice — the
// decisions below exist only because of the feature under test.

// TestCCPEdgeAssertionTrueArm: on the true out-edge of (x < 10) the engine
// refines x to [MinInt64, 9], which decides an inner test of the same
// predicate.
func TestCCPEdgeAssertionTrueArm(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x < 10) {
				if (x < 10) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	branches := decidableBranches(p, "x", pred.Lt, 10)
	if len(branches) != 2 {
		t.Fatalf("want 2 branches on x < 10, got %d", len(branches))
	}
	if o := s.BranchOutcome(branches[0].ID); o != pred.Unknown {
		t.Errorf("outer branch outcome = %v, want unknown (x is input)", o)
	}
	if o := s.BranchOutcome(branches[1].ID); o != pred.True {
		t.Errorf("inner branch outcome = %v, want true (edge assertion)", o)
	}
}

// TestCCPEdgeAssertionFalseArm: the false out-edge carries the negated
// predicate — x in [10, MaxInt64] — which decides the inner branch false.
func TestCCPEdgeAssertionFalseArm(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x < 10) {
				print(0);
			} else {
				if (x < 10) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	branches := decidableBranches(p, "x", pred.Lt, 10)
	if len(branches) != 2 {
		t.Fatalf("want 2 branches on x < 10, got %d", len(branches))
	}
	if o := s.BranchOutcome(branches[1].ID); o != pred.False {
		t.Errorf("inner branch outcome = %v, want false (negated edge assertion)", o)
	}
}

// TestCCPCopyChainRefinement: y = x makes {x, y} one copy group, so a branch
// on y refines x too.
func TestCCPCopyChainRefinement(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			var y = x;
			if (y == 3) {
				if (x == 3) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 3)
	if o := s.BranchOutcome(b.ID); o != pred.True {
		t.Errorf("branch on x outcome = %v, want true (refined through the copy of y)", o)
	}
	// The group fact is per-point: at the inner branch x is the constant 3.
	if v := s.ValueAt(b.ID, b.CondVar()); !v.isConst(3) {
		t.Errorf("ValueAt(inner, x) = %s, want 3", v)
	}
}

// TestCCPCopyChainBreaksOnReassign: overwriting the copy source severs the
// group, so the stale equality must not refine the copy.
func TestCCPCopyChainBreaksOnReassign(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			var y = x;
			x = input();
			if (y == 3) {
				if (x == 3) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	b := findBranch(t, p, "x", pred.Eq, 3)
	if o := s.BranchOutcome(b.ID); o != pred.Unknown {
		t.Errorf("branch on x outcome = %v, want unknown (x was reassigned after the copy)", o)
	}
}

// TestCCPByteRange: byte() lands in [0,255] whatever its input, deciding
// sentinel comparisons — the stdio byte-exit idiom (c != -1).
func TestCCPByteRange(t *testing.T) {
	p := build(t, `
		func main() {
			var c = byte(input());
			if (c == -1) { print(1); } else { print(2); }
			if (c < 256) { print(3); } else { print(4); }
		}
	`)
	s := RunSCCP(p)
	sentinel := findBranch(t, p, "c", pred.Eq, -1)
	if v := s.ValueAt(sentinel.ID, sentinel.CondVar()); v != rangeValue(0, 255) {
		t.Errorf("ValueAt(c) = %s, want the byte interval [0,255]", v)
	}
	if o := s.BranchOutcome(sentinel.ID); o != pred.False {
		t.Errorf("(c == -1) outcome = %v, want false (c in [0,255])", o)
	}
	if o := s.BranchOutcome(findBranch(t, p, "c", pred.Lt, 256).ID); o != pred.True {
		t.Errorf("(c < 256) outcome = %v, want true (c in [0,255])", o)
	}
}

// TestCCPRangeConstShift: interval arithmetic folds constant shifts, so a
// derived bound decides comparisons on the derived variable.
func TestCCPRangeConstShift(t *testing.T) {
	p := build(t, `
		func main() {
			var c = byte(input());
			var d = c + 10;
			if (d > 5) { print(1); } else { print(2); }
			var e = c - 300;
			if (e < 0) { print(3); } else { print(4); }
		}
	`)
	s := RunSCCP(p)
	if o := s.BranchOutcome(findBranch(t, p, "d", pred.Gt, 5).ID); o != pred.True {
		t.Errorf("(d > 5) outcome = %v, want true (d in [10,265])", o)
	}
	if o := s.BranchOutcome(findBranch(t, p, "e", pred.Lt, 0).ID); o != pred.True {
		t.Errorf("(e < 0) outcome = %v, want true (e in [-300,-45])", o)
	}
}

// TestCCPRangeMeetContainment: the meet of an interval with a contained
// constant keeps the interval; incomparable elements fall to ⊥.
func TestCCPRangeMeetContainment(t *testing.T) {
	r := rangeValue(0, 255)
	if got := meet(r, constant(7)); got != r {
		t.Errorf("meet([0,255], 7) = %s, want [0,255]", got)
	}
	if got := meet(r, rangeValue(10, 20)); got != r {
		t.Errorf("meet([0,255], [10,20]) = %s, want [0,255]", got)
	}
	if got := meet(r, constant(-1)); !got.IsBottom() {
		t.Errorf("meet([0,255], -1) = %s, want bottom", got)
	}
	if got := meet(r, rangeValue(-5, 5)); !got.IsBottom() {
		t.Errorf("meet([0,255], [-5,5]) = %s, want bottom (no hulling)", got)
	}
	if want := (Value{kind: vRange, lo: 0, hi: 255}); r != want {
		t.Errorf("rangeValue(0, 255) = %#v, want the proper interval %#v", r, want)
	}
}

// TestCCPUnreachableBranchNoDecision pins the vacuity rule: a branch in
// unreachable code must report no decision even though its condition is a
// constant comparison the engine could fold — grading it would manufacture
// spurious disagreements.
func TestCCPUnreachableBranchNoDecision(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 4) {
				if (x == 4) { print(1); } else { print(2); }
			}
		}
	`)
	s := RunSCCP(p)
	branches := decidableBranches(p, "x", pred.Eq, 4)
	if len(branches) != 2 {
		t.Fatalf("want 2 branches on x == 4, got %d", len(branches))
	}
	inner := branches[1]
	if s.Reachable(inner.ID) {
		t.Fatalf("inner branch should be unreachable (guarded by x == 4 with x = 5)")
	}
	if o := s.BranchOutcome(inner.ID); o != pred.Unknown {
		t.Errorf("unreachable branch outcome = %v, want unknown", o)
	}
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && !s.Reachable(n.ID) && s.BranchOutcome(n.ID) != pred.Unknown {
			t.Errorf("unreachable branch %d decided %v", n.ID, s.BranchOutcome(n.ID))
		}
	})
}

// TestCCPValueAtUnreachable: per-point facts for unreachable nodes are ⊥.
func TestCCPValueAtUnreachable(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			if (x == 4) { print(1); }
		}
	`)
	s := RunSCCP(p)
	var dead *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NPrint && !s.Reachable(n.ID) {
			dead = n
		}
	})
	if dead == nil {
		t.Fatalf("no unreachable print found")
	}
	if v := s.ValueAt(dead.ID, findVar(t, p, "x")); !v.IsBottom() {
		t.Errorf("ValueAt(unreachable, x) = %s, want bottom", v)
	}
}

func (v Value) isConst(c int64) bool {
	got, ok := v.Const()
	return ok && got == c
}
