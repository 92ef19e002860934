package ir

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
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
	n.SetRHS(RHS{Kind: RConst, Const: 5})
	p.RedirectSucc(entry.ID, succ, n.ID)
	p.AddEdge(n.ID, succ)
	pr := findNodes(p, NPrint)[0]
	after := pr.Succs[0]
	p.RemoveEdge(pr.ID, after)
	p.AddEdge(pr.ID, after)
	p.Mut(pr.ID).SetVal(ConstOp(99))
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
	for i := range fork.NumNodes() {
		id := NodeID(i)
		shared := i < parent.NumNodes() && fork.Node(id) == parent.Node(id)
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
}

// chainSource returns a program of one straight-line procedure with about
// n nodes.
func chainSource(n int) string {
	var src strings.Builder
	src.WriteString("func main() {\n\tvar x = input();\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "\tx = x + %d;\n", i)
	}
	src.WriteString("\tprint(x);\n}\n")
	return src.String()
}

// forkWriteBytes returns the bytes one Fork of p plus one Mut of node id
// allocates: the least average over a few batches, since anything else
// the process allocates meanwhile only adds.
func forkWriteBytes(p *Program, id NodeID) uint64 {
	const runs = 100
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range runs {
			Fork(p).Mut(id).Line++
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// TestForkCostsWhatItWrites forks settled programs of over a thousand and
// over ten thousand nodes and writes one node of each. A fork copies the
// page directory and the pages it writes, not the node table, so the write
// must cost under 2 KB at a thousand nodes, and ten times the program may
// add no more than one directory pointer per page.
func TestForkCostsWhatItWrites(t *testing.T) {
	var got []uint64
	var pages []int
	for _, size := range []int{1_000, 10_000} {
		p := build(t, chainSource(size))
		if p.NumNodes() < size {
			t.Fatalf("program has %d nodes, want at least %d", p.NumNodes(), size)
		}
		p.Settle()
		Fork(p) // the first fork shares p; later ones write nothing to it
		id := NodeID(p.NumNodes() / 2)
		for p.Node(id) == nil {
			id++
		}
		b := forkWriteBytes(p, id)
		t.Logf("%d nodes: fork + one Mut allocates %d bytes", p.NumNodes(), b)
		got = append(got, b)
		pages = append(pages, len(p.pages))
	}
	if got[0] >= 2048 {
		t.Errorf("1k nodes: fork + one Mut allocates %d bytes, want under 2048", got[0])
	}
	if dir := uint64(8 * pages[1]); got[1] > got[0]+dir {
		t.Errorf("fork + one Mut allocates %d bytes at 1k nodes but %d at 10k, want at most %d more (the %d-page directory)",
			got[0], got[1], dir, pages[1])
	}
}

// forkSources are the programs FuzzForkMatchesClone edits: a small one
// within one page, and one spanning a few pages whose last page is nearly
// full, so that appends cross into a new page and grow the directory.
var forkSources = sync.OnceValue(func() []*Program {
	var out []*Program
	for _, src := range []string{regionSources[1], chainSource(4*pageSize - 20)} {
		p, err := Build(src)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
})

// forkEdit applies edit op with arguments a and b to p through the
// mutators, Mut and MutProc. It reads only p's structure, so applied to two
// programs that encode alike it makes the same edit to both.
func forkEdit(p *Program, op, a, b byte) {
	var live []NodeID
	p.LiveNodes(func(n *Node) { live = append(live, n.ID) })
	if len(live) == 0 {
		return
	}
	n := p.Node(live[int(a)*len(live)/256])
	m := p.Node(live[int(b)*len(live)/256])
	switch op % 10 {
	case 0: // create nodes, up to 255 of them, and wire the first in
		first := p.NewNode(NNop, n.Proc)
		for i := 1; i < int(b); i++ {
			p.NewNode(NodeKind(i%int(NNop+1)), n.Proc).Line = int32(i)
		}
		p.AddEdge(n.ID, first.ID)
	case 1:
		p.AddEdge(n.ID, m.ID)
	case 2:
		if len(n.Succs) > 0 {
			p.RemoveEdge(n.ID, n.Succs[int(b)%len(n.Succs)])
		}
	case 3:
		if len(n.Succs) > 0 {
			p.RedirectSucc(n.ID, n.Succs[int(b)%len(n.Succs)], m.ID)
		}
	case 4:
		p.DeleteNode(n.ID)
	case 5:
		w := p.Mut(n.ID)
		w.Line = int32(b)
		w.SetVal(ConstOp(int64(a)))
	case 6:
		pr := p.MutProc(n.Proc)
		pr.Entries = append(pr.Entries, m.ID)
	case 7: // in place, as the restructurer removes entries and exits
		pr := p.MutProc(n.Proc)
		l := &pr.Exits
		if b%2 == 0 {
			l = &pr.Entries
		}
		if len(*l) > 0 {
			k := int(a) % len(*l)
			*l = slices.Delete(*l, k, k+1)
		}
	case 8:
		p.NewVar(fmt.Sprintf("v%d", b), VarTemp, n.Proc)
	default: // create a node on the last page of the arena
		c := p.NewNode(NAssign, m.Proc)
		c.SetRHS(RHS{Kind: RConst, Const: int64(a)})
		p.AddEdge(c.ID, m.ID)
	}
}

// FuzzForkMatchesClone runs random edit scripts on a family of forks, each
// program mirrored by a deep clone that gets the same edits. Script bytes
// come in threes: an operation and two arguments. The operation's high
// nibble picks a live program (0 the newest) and its low nibble what to do
// with it: edit it (0-11), fork it (12-13) or drop it (14-15) — a discarded
// attempt, or a parent the driver replaced by its adopted fork. At the end
// every live program must encode like its clone: a fork sees exactly its
// own edits, and no edit reaches its parent, a child or a sibling.
func FuzzForkMatchesClone(f *testing.F) {
	// Fork-of-fork chains with adoption and discard, on both programs.
	f.Add(uint8(0), []byte{0, 9, 200, 12, 0, 0, 0, 3, 70, 12, 0, 0, 5, 1, 2, 4, 100, 9, 30, 0, 0, 14, 0, 0, 9, 7, 7})
	f.Add(uint8(1), []byte{12, 0, 0, 0, 128, 60, 12, 0, 0, 9, 255, 1, 30, 0, 0, 0, 200, 80, 12, 0, 0, 0, 1, 255})
	// A fork writes a node, is forked, and writes it again.
	f.Add(uint8(0), []byte{12, 0, 0, 5, 1, 2, 12, 0, 0, 21, 1, 7})
	// Header edits through MutProc on a settled program's forks.
	f.Add(uint8(3), []byte{12, 0, 0, 6, 1, 2, 12, 0, 0, 7, 3, 3, 7, 0, 2, 30, 0, 0, 5, 9, 9, 14, 0, 0, 8, 1, 1})
	// A fork and its parent both append into the last page they share,
	// and two siblings do.
	f.Add(uint8(0), []byte{12, 0, 0, 9, 5, 5, 25, 5, 5, 28, 0, 0, 9, 1, 3, 41, 2, 3})
	// Appends across a page boundary on a fork, then on its sibling; a
	// fork of the fork writes the new page.
	f.Add(uint8(1), []byte{12, 0, 0, 0, 100, 250, 28, 0, 0, 0, 7, 250, 25, 9, 9})
	f.Add(uint8(1), []byte{12, 0, 0, 0, 255, 250, 12, 0, 0, 5, 255, 1, 4, 255, 3})
	f.Fuzz(func(t *testing.T, which uint8, script []byte) {
		srcs := forkSources()
		progs := []*Program{Clone(srcs[int(which)%len(srcs)])}
		refs := []*Program{Clone(progs[0])}
		if which&2 != 0 {
			progs[0].Settle()
		}
		if len(script) > 90 {
			script = script[:90]
		}
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			j := len(progs) - 1 - int(op>>4)%len(progs)
			switch op & 15 {
			case 12, 13:
				progs = append(progs, Fork(progs[j]))
				refs = append(refs, Clone(refs[j]))
			case 14, 15:
				if len(progs) > 1 {
					progs = slices.Delete(progs, j, j+1)
					refs = slices.Delete(refs, j, j+1)
				}
			default:
				forkEdit(progs[j], op&15, a, b)
				forkEdit(refs[j], op&15, a, b)
			}
		}
		for i := range progs {
			if got, want := EncodeProgram(progs[i]), EncodeProgram(refs[i]); !bytes.Equal(got, want) {
				t.Fatalf("program %d of %d encodes unlike its clone:\n--- fork\n%s\n--- clone\n%s",
					i, len(progs), progs[i].Dump(), refs[i].Dump())
			}
		}
	})
}
