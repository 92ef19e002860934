package fold

import (
	"testing"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func validate(t *testing.T, p *ir.Program) {
	t.Helper()
	if err := ir.Validate(p); err != nil {
		t.Fatalf("Validate: %v\n%s", err, p.Dump())
	}
}

// branchOn returns the unique branch testing (var op c).
func branchOn(t *testing.T, p *ir.Program, op pred.Op, c int64) *ir.Node {
	t.Helper()
	var found *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && n.CondOp() == op && n.CondRHS().IsConst && n.CondRHS().Const == c {
			if found != nil {
				t.Fatalf("two branches test %s %d", op, c)
			}
			found = n
		}
	})
	if found == nil {
		t.Fatalf("no branch tests %s %d\n%s", op, c, p.Dump())
	}
	return found
}

// bypass rewires every predecessor of a single-successor node straight to
// its successor and deletes it — how the joins and arm assertions lowering
// emits disappear under restructuring, leaving branches with several
// in-edges.
func bypass(t *testing.T, p *ir.Program, id ir.NodeID) {
	t.Helper()
	n := p.Node(id)
	if len(n.Succs) != 1 {
		t.Fatalf("node %d has %d successors, want 1", id, len(n.Succs))
	}
	to := n.Succs[0]
	for _, pid := range append([]ir.NodeID(nil), n.Preds...) {
		p.RedirectSucc(pid, id, to)
	}
	p.DeleteNode(id)
	validate(t, p)
}

// bypassJoin bypasses the join node in front of branch b.
func bypassJoin(t *testing.T, p *ir.Program, b *ir.Node) {
	t.Helper()
	if len(b.Preds) != 1 || p.Node(b.Preds[0]).Kind != ir.NNop {
		t.Fatalf("branch %d is not behind a join\n%s", b.ID, p.Dump())
	}
	bypass(t, p, b.Preds[0])
}

func rowOf(t *testing.T, f *Facts, b ir.NodeID) *BranchFact {
	t.Helper()
	for i := range f.Branches {
		if f.Branches[i].Branch == b {
			return &f.Branches[i]
		}
	}
	t.Fatalf("no row for branch %d", b)
	return nil
}

func TestComputeClasses(t *testing.T) {
	cases := []struct {
		name, src string
		op        pred.Op
		c         int64
		join      bool // bypass the join in front of the branch
		class     Class
		outcome   pred.Outcome
		live, dec int
		residual  int
	}{
		// The entry state decides the branch.
		{"value", `func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}`, pred.Eq, 5, false, ClassValue, pred.True, 1, 1, 1},
		// The entry state meets 1 and 2 to ⊥; both in-edges decide alike.
		{"unanimous", `func main() {
			var x = input();
			if (x < 5) { x = 1; } else { x = 2; }
			if (x > 0) { print(1); } else { print(2); }
		}`, pred.Gt, 0, true, ClassValue, pred.True, 2, 2, 1},
		// The two in-edges decide opposite outcomes.
		{"split-both", `func main() {
			var x = input();
			if (x < 5) { print(0); }
			if (x <= 4) { print(1); } else { print(2); }
		}`, pred.Le, 4, true, ClassEdgeSplit, pred.Unknown, 2, 2, 0},
		// One in-edge decides, the other does not.
		{"split-one", `func main() {
			var x = input();
			if (x < 5) { print(0); } else { x = input(); }
			if (x <= 4) { print(1); } else { print(2); }
		}`, pred.Le, 4, true, ClassEdgeSplit, pred.Unknown, 2, 1, 0},
		{"undecidable", `func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
		}`, pred.Eq, 0, false, ClassUndecidable, pred.Unknown, 1, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, tc.src)
			b := branchOn(t, p, tc.op, tc.c)
			if tc.join {
				bypassJoin(t, p, b)
			}
			f := Analyze(p)
			bf := rowOf(t, f, b.ID)
			if bf.Class != tc.class || bf.Outcome != tc.outcome || bf.LiveEdges != tc.live || bf.DecidedEdges != tc.dec {
				t.Errorf("row = %s/%v, %d live, %d decided; want %s/%v, %d, %d",
					bf.Class, bf.Outcome, bf.LiveEdges, bf.DecidedEdges, tc.class, tc.outcome, tc.live, tc.dec)
			}
			if bf.Foldable() != (tc.class != ClassUndecidable) {
				t.Errorf("Foldable = %v for class %s", bf.Foldable(), bf.Class)
			}
			if f.Residual != tc.residual {
				t.Errorf("Residual = %d, want %d", f.Residual, tc.residual)
			}
		})
	}
}

func TestApplyValueFold(t *testing.T) {
	p := build(t, `func main() {
		var x = 5;
		if (x == 5) { print(1); } else { print(2); }
	}`)
	b := branchOn(t, p, pred.Eq, 5)
	keep, drop := b.Succs[0], b.Succs[1]
	bf := rowOf(t, Analyze(p), b.ID)
	redirected, changed := Apply(p, bf)
	if redirected != 0 || !changed {
		t.Fatalf("Apply = %d, %v; want 0, true", redirected, changed)
	}
	n := p.Node(b.ID)
	if n.Kind != ir.NNop || !n.Synthetic || len(n.Succs) != 1 || n.Succs[0] != keep {
		t.Errorf("folded branch = %s synthetic %v succs %v; want a synthetic nop to %d", n.Kind, n.Synthetic, n.Succs, keep)
	}
	for _, pid := range p.Node(drop).Preds {
		if pid == b.ID {
			t.Errorf("dead arm %d still has the branch as predecessor", drop)
		}
	}
}

func TestApplyEdgeSplitRedirects(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"both", `func main() {
			var x = input();
			if (x < 5) { print(0); }
			if (x <= 4) { print(1); } else { print(2); }
		}`, 2},
		{"one", `func main() {
			var x = input();
			if (x < 5) { print(0); } else { x = input(); }
			if (x <= 4) { print(1); } else { print(2); }
		}`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, tc.src)
			b := branchOn(t, p, pred.Le, 4)
			bypassJoin(t, p, b)
			arms := [2]ir.NodeID{b.Succs[0], b.Succs[1]}
			bf := rowOf(t, Analyze(p), b.ID)
			redirected, changed := Apply(p, bf)
			if redirected != tc.want || !changed {
				t.Fatalf("Apply = %d, %v; want %d, true", redirected, changed, tc.want)
			}
			for _, e := range bf.Edges {
				pn := p.Node(e.From)
				switch e.Outcome {
				case pred.True, pred.False:
					arm := arms[0]
					if e.Outcome == pred.False {
						arm = arms[1]
					}
					if pn.Succs[e.Slot] != arm {
						t.Errorf("edge from %d decided %v goes to %d, want arm %d", e.From, e.Outcome, pn.Succs[e.Slot], arm)
					}
				default:
					if pn.Succs[e.Slot] != b.ID {
						t.Errorf("undecided edge from %d moved to %d", e.From, pn.Succs[e.Slot])
					}
				}
			}
			validate(t, p)
		})
	}
}

// TestApplyRefusals pins what Apply leaves alone rather than rewrite.
func TestApplyRefusals(t *testing.T) {
	const split = `func main() {
		var x = input();
		if (x < 5) { print(0); }
		if (x <= 4) { print(1); } else { print(2); }
	}`
	t.Run("parallel-in-edges", func(t *testing.T) {
		// Both arms of the outer branch wired straight into the inner one:
		// RedirectSucc could not tell the two edges apart.
		p := build(t, `func main() {
			var x = input();
			if (x < 5) {
				if (x < 10) { print(1); } else { print(2); }
			}
		}`)
		outer, inner := branchOn(t, p, pred.Lt, 5), branchOn(t, p, pred.Lt, 10)
		bypass(t, p, outer.Succs[0])
		elseArm := p.Node(outer.ID).Succs[1]
		p.RedirectSucc(outer.ID, elseArm, inner.ID)
		p.DeleteNode(elseArm)
		validate(t, p)
		bf := rowOf(t, Analyze(p), inner.ID)
		if bf.Class != ClassEdgeSplit {
			t.Fatalf("class = %s, want edge-split", bf.Class)
		}
		if redirected, changed := Apply(p, bf); redirected != 0 || changed {
			t.Errorf("Apply = %d, %v; want 0, false", redirected, changed)
		}
	})
	for _, kind := range []ir.NodeKind{ir.NCall, ir.NExit} {
		t.Run("pred-"+kind.String(), func(t *testing.T) {
			p := build(t, split)
			b := branchOn(t, p, pred.Le, 4)
			bypassJoin(t, p, b)
			bf := rowOf(t, Analyze(p), b.ID)
			// Out-edges of calls and exits carry interprocedural linkage.
			for _, e := range bf.Edges {
				p.Node(e.From).Kind = kind
			}
			if redirected, changed := Apply(p, bf); redirected != 0 || changed {
				t.Errorf("Apply = %d, %v; want 0, false", redirected, changed)
			}
		})
	}
	t.Run("self-loop", func(t *testing.T) {
		// The surviving arm loops straight back into the branch.
		p := build(t, `func main() {
			var x = 5;
			if (x == 5) { print(1); } else { print(2); }
		}`)
		b := branchOn(t, p, pred.Eq, 5)
		arm := p.Node(b.Succs[0])
		p.RedirectSucc(b.ID, arm.ID, b.ID)
		p.DeleteNode(arm.ID)
		bf := rowOf(t, Analyze(p), b.ID)
		if bf.Class != ClassValue || bf.Outcome != pred.True {
			t.Fatalf("row = %s/%v, want value/true", bf.Class, bf.Outcome)
		}
		if redirected, changed := Apply(p, bf); redirected != 0 || changed {
			t.Errorf("Apply = %d, %v; want 0, false", redirected, changed)
		}
		if p.Node(b.ID).Kind != ir.NBranch {
			t.Errorf("branch rewritten to %s", p.Node(b.ID).Kind)
		}
	})
}
