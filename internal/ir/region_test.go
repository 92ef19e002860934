package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// regionSources are the valid programs FuzzForkValidate forks: calls with
// and without results, recursion, a loop, several exits per procedure and
// a global.
var regionSources = []string{`
	func add(a, b) { return a + b; }
	func main() {
		var x = input();
		if (x > 0) { print(add(x, 1)); } else { print(0); }
	}
`, `
	var g = 0;
	func f(n) {
		if (n <= 0) { return 0; }
		g = g + 1;
		return f(n - 1) + 1;
	}
	func sign(v) {
		if (v < 0) { return -1; }
		if (v == 0) { return 0; }
		return 1;
	}
	func main() {
		var i = 0;
		while (i < 3) {
			print(f(i));
			i = i + 1;
		}
		var s = sign(input());
		if (s == 0) { print(g); } else { sign(s); }
	}
`}

// regionEdit is one FuzzForkValidate step: a mutator call or a deliberate
// corruption, applied to the fork through Mut. a and b pick nodes, procs
// and variables. corrupt marks a step that may leave an edge in only one of
// its two lists or pointing at no node: a settled program never has such
// an edge, and the mutators may fault on one, so it is the input's last.
type regionEdit struct {
	name    string
	corrupt bool
	apply   func(p *Program, a, b int)
}

var regionEdits = []regionEdit{
	{"new-node", false, func(p *Program, a, b int) {
		from := pickNode(p, a)
		n := p.NewNode(NNop, from.Proc)
		p.AddEdge(from.ID, n.ID)
		if b%2 == 0 {
			p.AddEdge(n.ID, pickNode(p, b).ID)
		}
	}},
	{"add-edge", false, func(p *Program, a, b int) {
		p.AddEdge(pickNode(p, a).ID, pickNode(p, b).ID)
	}},
	{"remove-edge", false, func(p *Program, a, b int) {
		if n := pickNode(p, a); len(n.Succs) > 0 {
			p.RemoveEdge(n.ID, n.Succs[b%len(n.Succs)])
		}
	}},
	{"redirect", false, func(p *Program, a, b int) {
		if n := pickNode(p, a); len(n.Succs) > 0 {
			p.RedirectSucc(n.ID, n.Succs[b%len(n.Succs)], pickNode(p, b).ID)
		}
	}},
	{"delete", false, func(p *Program, a, b int) {
		n := pickNode(p, a)
		if b%2 == 0 {
			// Keep the procedure's lists in step, as prune does.
			pr := p.MutProc(n.Proc)
			pr.Entries = removeOne(pr.Entries, n.ID)
			pr.Exits = removeOne(pr.Exits, n.ID)
		}
		p.DeleteNode(n.ID)
	}},
	{"retype", false, func(p *Program, a, b int) {
		n := p.Mut(pickNode(p, a).ID)
		n.Kind = NodeKind(b % int(NNop+1))
	}},
	{"one-sided-edge", true, func(p *Program, a, b int) {
		n := pickNode(p, a)
		if len(n.Succs) == 0 {
			return
		}
		s := n.Succs[b%len(n.Succs)]
		if b%4 < 2 {
			m := p.Mut(n.ID)
			m.Succs = removeOne(m.Succs, s)
		} else {
			m := p.Mut(s)
			m.Preds = removeOne(m.Preds, n.ID)
		}
	}},
	{"dangling-succ", true, func(p *Program, a, b int) {
		m := p.Mut(pickNode(p, a).ID)
		m.Succs = append(m.Succs, NodeID(p.NumNodes()+b))
	}},
	{"one-armed-branch", false, func(p *Program, a, b int) {
		for i := range p.NumNodes() {
			n := p.Node(NodeID((a + i) % p.NumNodes()))
			if n != nil && n.Kind == NBranch && len(n.Succs) == 2 {
				p.RemoveEdge(n.ID, n.Succs[b%2])
				return
			}
		}
	}},
	{"drop-exit", false, func(p *Program, a, b int) {
		pr := p.MutProc(a % len(p.Procs))
		if len(pr.Exits) > 0 {
			pr.Exits = removeOne(pr.Exits, pr.Exits[b%len(pr.Exits)])
		}
	}},
	{"cross-proc-var", false, func(p *Program, a, b int) {
		for i := range p.NumNodes() {
			n := p.Node(NodeID((a + i) % p.NumNodes()))
			if n == nil || n.Kind != NAssign || n.Dst == NoVar {
				continue
			}
			for j := range p.Vars {
				v := p.Vars[(b+j)%len(p.Vars)]
				if !v.IsGlobal() && v.Proc != n.Proc {
					p.Mut(n.ID).Dst = v.ID
					return
				}
			}
			return
		}
	}},
}

// maxRegionEdits bounds the edits one FuzzForkValidate input applies, so
// every execution stays fast.
const maxRegionEdits = 48

// pickNode returns the live node i selects among the program's live nodes.
func pickNode(p *Program, i int) *Node {
	live := findLive(p)
	return live[i%len(live)]
}

func findLive(p *Program) []*Node {
	var out []*Node
	p.LiveNodes(func(n *Node) { out = append(out, n) })
	return out
}

// FuzzForkValidate checks the region Validate against the whole-program
// one. It settles a valid built program, forks it, and applies edits and
// corruptions from the input through Mut and the mutators; the region run
// on the fork must be nil exactly when Validate of a deep clone is. The
// input's first byte picks the program and whether the fork, if it is
// still valid halfway through, is settled and forked again, so forks of
// forks are covered too.
func FuzzForkValidate(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4})
	f.Add([]byte{1, 6, 5, 9, 2, 7, 1})
	f.Add([]byte{3, 8, 0, 1, 9, 2, 2})
	f.Add([]byte{2, 10, 12, 3, 4, 4, 1})
	f.Add([]byte{3, 1, 4, 2, 0, 0, 6, 3, 7, 5, 11, 2, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p, err := Build(regionSources[int(data[0])%len(regionSources)])
		if err != nil {
			t.Fatal(err)
		}
		refork := data[0]&2 != 0
		p.Settle()
		fork := Fork(p)
		steps := data[1:]
		var applied []string
		if len(steps) > 3*maxRegionEdits {
			steps = steps[:3*maxRegionEdits]
		}
		for i := 0; i+2 < len(steps) && len(findLive(fork)) > 0; i += 3 {
			if refork && i >= len(steps)/2 {
				refork = false
				if Validate(Clone(fork)) == nil {
					fork.Settle()
					fork = Fork(fork)
				}
			}
			e := regionEdits[int(steps[i])%len(regionEdits)]
			e.apply(fork, int(steps[i+1]), int(steps[i+2]))
			applied = append(applied, e.name)
			if e.corrupt {
				break
			}
		}
		if !fork.Local() {
			t.Fatal("a fork of a settled program is not Local")
		}
		got, want := Validate(fork), Validate(Clone(fork))
		if (got == nil) != (want == nil) {
			t.Fatalf("after %v: region Validate = %v, whole-program Validate = %v\n%s",
				applied, got, want, fork.Dump())
		}
	})
}

// TestRegionNodesOrder pins RegionNodes' visiting order on a Local fork to
// a sort of a fresh copy of Touched, after every edit of a fixed sequence,
// and checks the region stays fixed while f edits and calls RegionNodes
// again.
func TestRegionNodesOrder(t *testing.T) {
	p := build(t, regionSources[1])
	p.Settle()
	fork := Fork(p)
	want := func() []NodeID {
		ids := slices.Clone(fork.Touched())
		slices.Sort(ids)
		var live []NodeID
		for _, id := range ids {
			if fork.Node(id) != nil {
				live = append(live, id)
			}
		}
		return live
	}
	visit := func() []NodeID {
		var got []NodeID
		fork.RegionNodes(func(n *Node) { got = append(got, n.ID) })
		return got
	}
	for i := 0; i < 40; i++ {
		e := regionEdits[(i*7)%len(regionEdits)]
		if e.corrupt {
			continue
		}
		e.apply(fork, i*13+5, i*29+3)
		if got, w := visit(), want(); !slices.Equal(got, w) {
			t.Fatalf("after edit %d (%s): RegionNodes visited %v, want %v", i, e.name, got, w)
		}
		if got, w := visit(), want(); !slices.Equal(got, w) {
			t.Fatalf("after edit %d (%s), second call: RegionNodes visited %v, want %v", i, e.name, got, w)
		}
	}
	before := want()
	var got []NodeID
	fork.RegionNodes(func(n *Node) {
		got = append(got, n.ID)
		c := fork.NewNode(NNop, n.Proc)
		fork.AddEdge(n.ID, c.ID)
		visit()
	})
	if !slices.Equal(got, before) {
		t.Fatalf("RegionNodes with edits in f visited %v, want the region at the start %v", got, before)
	}
	if got, w := visit(), want(); !slices.Equal(got, w) {
		t.Fatalf("after edits in f: RegionNodes visited %v, want %v", got, w)
	}
}

// TestForkArenaSizedByAttempt pins the node pool's chunk sizes: a fork of
// a settled program of over a thousand nodes that writes one node carves a
// chunk of at most 2 nodes, while a whole program carves at least 64, and a
// build leaves at most a quarter of its nodes' worth of slots unused.
func TestForkArenaSizedByAttempt(t *testing.T) {
	var src strings.Builder
	src.WriteString("func main() {\n\tvar x = input();\n")
	for i := 0; i < 1100; i++ {
		fmt.Fprintf(&src, "\tx = x + %d;\n", i)
	}
	src.WriteString("\tprint(x);\n}\n")
	p := build(t, src.String())
	if p.NumNodes() < 1000 {
		t.Fatalf("program has %d nodes, want at least 1000", p.NumNodes())
	}
	if spare := len(p.nodePool); spare > p.NumNodes()/4 {
		t.Errorf("a build of %d nodes left %d node slots unused, want at most %d", p.NumNodes(), spare, p.NumNodes()/4)
	}
	p.Settle()
	fork := Fork(p)
	fork.Mut(p.Procs[p.MainProc].Entries[0])
	if chunk := len(fork.nodePool) + 1; chunk > 2 {
		t.Errorf("a fork that wrote one node carved a chunk of %d nodes, want at most 2", chunk)
	}
	whole := &Program{}
	whole.NewNode(NNop, 0)
	if chunk := len(whole.nodePool) + 1; chunk < 64 {
		t.Errorf("a whole program carved a chunk of %d nodes, want at least 64", chunk)
	}
}
