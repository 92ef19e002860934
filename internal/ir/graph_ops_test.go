package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestEdgeOpsSymmetry checks AddEdge/RemoveEdge keep Succs/Preds mirrored
// under random operation sequences.
func TestEdgeOpsSymmetry(t *testing.T) {
	f := func(ops []uint16) bool {
		p := &Program{Procs: []*Proc{{Name: "t"}}}
		const n = 8
		var ids [n]NodeID
		for i := 0; i < n; i++ {
			ids[i] = p.NewNode(NNop, 0).ID
		}
		for _, op := range ops {
			from := ids[int(op)%n]
			to := ids[int(op>>4)%n]
			if op%3 == 0 {
				p.RemoveEdge(from, to)
			} else {
				p.AddEdge(from, to)
			}
		}
		// Verify symmetry.
		ok := true
		p.LiveNodes(func(nd *Node) {
			for _, s := range nd.Succs {
				if count(p.Node(s).Preds, nd.ID) != count(nd.Succs, s) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddEdgeDedupesNonBranch(t *testing.T) {
	p := &Program{Procs: []*Proc{{Name: "t"}}}
	a := p.NewNode(NNop, 0)
	b := p.NewNode(NNop, 0)
	p.AddEdge(a.ID, b.ID)
	p.AddEdge(a.ID, b.ID)
	if len(a.Succs) != 1 || len(b.Preds) != 1 {
		t.Errorf("duplicate edge not deduped: %v %v", a.Succs, b.Preds)
	}
}

func TestAddEdgeAllowsParallelBranchArms(t *testing.T) {
	p := &Program{Procs: []*Proc{{Name: "t"}}}
	br := p.NewNode(NBranch, 0)
	target := p.NewNode(NNop, 0)
	p.AddEdge(br.ID, target.ID)
	p.AddEdge(br.ID, target.ID)
	if len(br.Succs) != 2 {
		t.Errorf("branch parallel arms = %d, want 2", len(br.Succs))
	}
	// Removing one instance keeps the other.
	p.RemoveEdge(br.ID, target.ID)
	if len(br.Succs) != 1 || len(target.Preds) != 1 {
		t.Errorf("after removal: succs %v preds %v", br.Succs, target.Preds)
	}
}

func TestDeleteNodeCleansBothSides(t *testing.T) {
	p := &Program{Procs: []*Proc{{Name: "t"}}}
	a := p.NewNode(NNop, 0)
	b := p.NewNode(NNop, 0)
	c := p.NewNode(NNop, 0)
	p.AddEdge(a.ID, b.ID)
	p.AddEdge(b.ID, c.ID)
	p.DeleteNode(b.ID)
	if p.Node(b.ID) != nil {
		t.Fatal("node not deleted")
	}
	if len(a.Succs) != 0 || len(c.Preds) != 0 {
		t.Errorf("dangling references: %v %v", a.Succs, c.Preds)
	}
	// Deleting again is a no-op.
	p.DeleteNode(b.ID)
}

func TestRedirectSuccPanicsOnMissingEdge(t *testing.T) {
	p := &Program{Procs: []*Proc{{Name: "t"}}}
	a := p.NewNode(NNop, 0)
	b := p.NewNode(NNop, 0)
	c := p.NewNode(NNop, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.RedirectSucc(a.ID, b.ID, c.ID)
}

func TestEntrySuccPanicsWithoutEntry(t *testing.T) {
	p := &Program{Procs: []*Proc{{Name: "t"}}}
	call := p.NewNode(NCall, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.EntrySucc(call)
}

func TestCondPredPanicsOnVarVarBranch(t *testing.T) {
	p := build(t, `
		func main() {
			var a = input();
			var b = input();
			if (a == b) { print(1); }
		}
	`)
	br := findNodes(p, NBranch)[0]
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	br.CondPred()
}

func TestNodeOutOfRangeLookups(t *testing.T) {
	p := build(t, `func main() { print(1); }`)
	if p.Node(-1) != nil || p.Node(NodeID(p.NumNodes())) != nil {
		t.Error("out-of-range Node lookup returned non-nil")
	}
}

func TestVarNameHelpers(t *testing.T) {
	p := build(t, `var g; func main() { var x = g; print(x); }`)
	if p.VarName(NoVar) != "_" {
		t.Error("NoVar name")
	}
	if p.VarName(0) != "g" {
		t.Errorf("global name = %q", p.VarName(0))
	}
	if !strings.Contains(p.VarName(1), "main") && !strings.Contains(p.VarName(2), "main") {
		t.Error("local names should carry the procedure prefix")
	}
}

func TestProcByName(t *testing.T) {
	p := build(t, `func a() {} func main() { a(); }`)
	if p.ProcByName("a") == nil || p.ProcByName("main") == nil || p.ProcByName("zzz") != nil {
		t.Error("ProcByName lookup wrong")
	}
}

func TestCollectOnEmptyishProgram(t *testing.T) {
	p := build(t, `func main() {}`)
	st := Collect(p)
	if st.Conditionals != 0 || st.Procs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Operations == 0 {
		t.Error("implicit return should count as an operation")
	}
}
