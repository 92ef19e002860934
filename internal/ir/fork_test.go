package ir

import (
	"bytes"
	"testing"
)

// forkEdits applies one of every mutator to p: NewVar, NewNode, AddEdge,
// RemoveEdge, RedirectSucc, DeleteNode, and a field write through Mut.
func forkEdits(t *testing.T, p *Program) {
	t.Helper()
	main := p.Procs[p.MainProc]
	entry := p.Node(main.Entries[0])
	succ := entry.Succs[0]
	v := p.NewVar("main.$fork", VarTemp, p.MainProc)
	n := p.NewNode(NAssign, p.MainProc)
	n.Dst = v
	n.RHS = RHS{Kind: RConst, Const: 5}
	p.RedirectSucc(entry.ID, succ, n.ID)
	p.AddEdge(n.ID, succ)
	pr := findNodes(p, NPrint)[0]
	after := pr.Succs[0]
	p.RemoveEdge(pr.ID, after)
	p.AddEdge(pr.ID, after)
	p.Mut(pr.ID).Val = ConstOp(99)
	p.DeleteNode(findNodes(p, NBranch)[0].ID)
}

// TestForkIsolation applies every mutator to a fork: the parent's encoding
// must not change, the fork must encode exactly like a deep clone given the
// same edits, and every node outside Touched must still be shared.
func TestForkIsolation(t *testing.T) {
	parent := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
			print(x);
		}
	`)
	before := EncodeProgram(parent)

	fork := Fork(parent)
	forkEdits(t, fork)
	if !bytes.Equal(EncodeProgram(parent), before) {
		t.Fatal("editing the fork changed the parent")
	}
	clone := Clone(parent)
	forkEdits(t, clone)
	if !bytes.Equal(EncodeProgram(fork), EncodeProgram(clone)) {
		t.Fatalf("fork and clone disagree after the same edits:\n--- fork\n%s\n--- clone\n%s", fork.Dump(), clone.Dump())
	}
	touched := make(map[NodeID]bool)
	for _, id := range fork.Touched() {
		if touched[id] {
			t.Errorf("node %d touched twice", id)
		}
		touched[id] = true
	}
	for i, n := range fork.Nodes {
		shared := i < len(parent.Nodes) && n == parent.Nodes[i]
		if shared == touched[NodeID(i)] {
			t.Errorf("node %d: shared=%v but touched=%v", i, shared, touched[NodeID(i)])
		}
	}

	// Forking ended the parent's ownership: a parent write privatizes too
	// and never reaches the fork.
	forkBytes := EncodeProgram(fork)
	parent.Mut(findNodes(parent, NPrint)[0].ID).Line = 1234
	if !bytes.Equal(EncodeProgram(fork), forkBytes) {
		t.Fatal("writing the parent changed the fork")
	}

	// A fork of a fork is isolated from both.
	grand := Fork(fork)
	pr := findNodes(grand, NPrint)[0]
	grand.Mut(pr.ID).Line = 7
	grand.DeleteNode(pr.Succs[0])
	grand.NewNode(NNop, grand.MainProc)
	if !bytes.Equal(EncodeProgram(fork), forkBytes) {
		t.Fatal("editing a fork of a fork changed its parent")
	}
	fork.Unshare()
	if fork.Touched() != nil {
		t.Fatal("Unshare left a touched set")
	}
}
