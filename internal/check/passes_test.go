package check

import (
	"testing"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

func TestPassesCleanProgram(t *testing.T) {
	p := build(t, `
		func inc(a) { return a + 1; }
		func main() {
			var x = input();
			var s = 0;
			while (x > 0) { s = s + inc(x); x = x - 1; }
			print(s);
		}
	`)
	rep := AnalyzeInvariants(p)
	if len(rep.Findings) != 0 {
		t.Errorf("invariant findings on a compiled program = %d, want 0:\n%v", len(rep.Findings), rep.Findings)
	}
}

func TestUnreachableNodeFinding(t *testing.T) {
	p := build(t, `
		func main() { print(1); }
	`)
	// An orphan nop wired to an existing node: ir.Validate has no
	// reachability requirement, so only the unreachable-node pass sees it.
	pr := p.Procs[p.MainProc]
	orphan := p.NewNode(ir.NNop, pr.Index)
	p.AddEdge(orphan.ID, pr.Exits[0])
	if err := ir.Validate(p); err != nil {
		t.Fatalf("orphan nop should pass structural validation: %v", err)
	}
	rep := AnalyzeInvariants(p)
	if got := rep.Count("unreachable-node"); got != 1 {
		t.Errorf("unreachable-node findings = %d, want 1:\n%v", got, rep.Findings)
	}
	f, err := rep.FirstFinding("unreachable-node")
	if err != nil || f.Node != orphan.ID {
		t.Errorf("finding anchored at %d, want %d (err %v)", f.Node, orphan.ID, err)
	}
}

func TestUseBeforeDefFinding(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			print(x);
		}
	`)
	// Erase the zero-initializing assignment by retyping it: the read at the
	// print is now ahead of every definition.
	var erased bool
	for i := range p.NumNodes() {
		n := p.Node(ir.NodeID(i))
		if n != nil && n.Kind == ir.NAssign && n.RHS().Kind == ir.RConst && n.RHS().Const == 0 {
			n.Kind = ir.NNop
			erased = true
			break
		}
	}
	if !erased {
		t.Fatalf("no zero-init assignment found\n%s", p.Dump())
	}
	rep := AnalyzeInvariants(p)
	if got := rep.Count("use-before-def"); got == 0 {
		t.Errorf("use-before-def findings = 0, want >0:\n%v", rep.Findings)
	}
}

func TestStructureFinding(t *testing.T) {
	p := build(t, `
		func main() { print(1); }
	`)
	// A dangling successor edge (succ without matching pred) is a structural
	// violation ir.Validate reports.
	pr := p.Procs[p.MainProc]
	entry := p.Node(pr.Entries[0])
	entry.Succs = append(entry.Succs, pr.Exits[0])
	rep := AnalyzeInvariants(p)
	if got := rep.Count("structure"); got == 0 {
		t.Errorf("structure findings = 0, want >0:\n%v", rep.Findings)
	}
	if len(rep.Findings) == 0 {
		t.Errorf("structure violations must count as findings")
	}
}

func TestRegistryOrderAndKinds(t *testing.T) {
	want := []struct {
		name string
		kind Kind
	}{
		{"structure", Invariant},
		{"unreachable-node", Invariant},
		{"use-before-def", Invariant},
		{"sccp-consistency", Invariant},
	}
	ps := Passes()
	if len(ps) != len(want) {
		t.Fatalf("registry has %d passes, want %d", len(ps), len(want))
	}
	for i, w := range want {
		if ps[i].Name() != w.name || ps[i].Kind() != w.kind {
			t.Errorf("pass %d = %s/%d, want %s/%d", i, ps[i].Name(), ps[i].Kind(), w.name, w.kind)
		}
	}
}

func TestBranchOutcomeNonBranch(t *testing.T) {
	p := build(t, `func main() { print(1); }`)
	s := RunSCCP(p)
	pr := p.Procs[p.MainProc]
	if got := s.BranchOutcome(pr.Entries[0]); got != pred.Unknown {
		t.Errorf("BranchOutcome(entry) = %v, want unknown", got)
	}
	if got := s.BranchOutcome(ir.NoNode); got != pred.Unknown {
		t.Errorf("BranchOutcome(NoNode) = %v, want unknown", got)
	}
	if v := s.ValueAt(pr.Entries[0], ir.NoVar); !v.IsBottom() {
		t.Errorf("ValueAt(entry, NoVar) = %s, want ⊥", v)
	}
}
