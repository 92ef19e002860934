package ir

import "testing"

const indexTestSrc = `
var g;

func callee(x) {
	if (x < 0) {
		return 0 - x;
	}
	return x;
}

func main() {
	g = input();
	g = callee(g);
	if (g > 10) {
		print(1);
	} else {
		print(callee(g));
	}
}
`

// TestIndexMatchesLinearScans checks every indexed link against the
// Program's scanning helpers on a program exercising calls from several
// contexts.
func TestIndexMatchesLinearScans(t *testing.T) {
	p, err := Build(indexTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(p)
	if ix.NumNodes() != p.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", ix.NumNodes(), p.NumNodes())
	}
	calls, exits := 0, 0
	for i := range p.NumNodes() {
		n := p.Node(NodeID(i))
		if n == nil {
			continue
		}
		switch n.Kind {
		case NCallExit:
			exits++
			want := NoNode
			if c := p.CallPred(n); c != nil {
				want = c.ID
			}
			if got := ix.CallPred(n.ID); got != want {
				t.Errorf("CallPred(%d) = %d, want %d", n.ID, got, want)
			}
			want = NoNode
			if e := p.ExitPred(n); e != nil {
				want = e.ID
			}
			if got := ix.ExitPred(n.ID); got != want {
				t.Errorf("ExitPred(%d) = %d, want %d", n.ID, got, want)
			}
		case NCall:
			calls++
			if got, want := ix.EntrySucc(n.ID), p.EntrySucc(n).ID; got != want {
				t.Errorf("EntrySucc(%d) = %d, want %d", n.ID, got, want)
			}
		}
	}
	if calls == 0 || exits == 0 {
		t.Fatalf("test program has %d calls and %d call exits; want both > 0", calls, exits)
	}
}

// TestIndexMalformedEntryPanics checks that a call without an entry
// successor panics lazily with the Program method's message, and only when
// the link is consulted.
func TestIndexMalformedEntryPanics(t *testing.T) {
	p, err := Build(indexTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	var call *Node
	for i := range p.NumNodes() {
		n := p.Node(NodeID(i))
		if n != nil && n.Kind == NCall {
			call = n
			break
		}
	}
	entry := p.EntrySucc(call)
	p.RemoveEdge(call.ID, entry.ID)
	ix := BuildIndex(p) // must not panic while building
	defer func() {
		if recover() == nil {
			t.Fatal("EntrySucc on a call without entry successor did not panic")
		}
	}()
	ix.EntrySucc(call.ID)
}
