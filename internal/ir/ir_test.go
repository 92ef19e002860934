package ir

import (
	"strings"
	"testing"
	"unsafe"

	"icbe/internal/pred"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Build(src)
	if err != nil {
		t.Fatalf("Build failed: %v", err)
	}
	if err := Validate(p); err != nil {
		t.Fatalf("Validate failed: %v\n%s", err, p.Dump())
	}
	return p
}

func findNodes(p *Program, kind NodeKind) []*Node {
	var out []*Node
	p.LiveNodes(func(n *Node) {
		if n.Kind == kind {
			out = append(out, n)
		}
	})
	return out
}

// TestNodeSize bounds the node struct. Node allocation was the largest
// allocation site of a cold optimize (about half the bytes of the
// benchmark's scale-cold and recursion shapes, in BenchmarkColdShapes'
// memory profile) when every kind's payload sat side by side in a 232-byte
// node; the kinds now share one payload block.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 152 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want at most 152", got)
	}
}

func TestBuildStraightLine(t *testing.T) {
	p := build(t, `
		var g = 5;
		func main() {
			var x = g;
			x = x + 1;
			print(x);
		}
	`)
	if len(p.Procs) != 1 {
		t.Fatalf("procs = %d", len(p.Procs))
	}
	if p.Vars[0].Name != "g" || p.Vars[0].Init != 5 {
		t.Errorf("global g = %+v", p.Vars[0])
	}
	if n := len(findNodes(p, NBranch)); n != 0 {
		t.Errorf("branches = %d, want 0", n)
	}
	if n := len(findNodes(p, NPrint)); n != 1 {
		t.Errorf("prints = %d, want 1", n)
	}
}

func TestBuildIfProducesAssertArms(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	brs := findNodes(p, NBranch)
	if len(brs) != 1 {
		t.Fatalf("branches = %d, want 1", len(brs))
	}
	br := brs[0]
	if !br.Analyzable() {
		t.Fatal("branch should be analyzable")
	}
	if got := br.CondPred(); got.Op != pred.Eq || got.C != 0 {
		t.Errorf("cond pred = %v", got)
	}
	tArm := p.Node(br.TrueSucc())
	fArm := p.Node(br.FalseSucc())
	if tArm.Kind != NAssert || fArm.Kind != NAssert {
		t.Fatalf("arms = %s/%s, want assert/assert", tArm.Kind, fArm.Kind)
	}
	if tArm.APred() != (pred.Pred{Op: pred.Eq, C: 0}) {
		t.Errorf("true assert = %v", tArm.APred())
	}
	if fArm.APred() != (pred.Pred{Op: pred.Ne, C: 0}) {
		t.Errorf("false assert = %v", fArm.APred())
	}
}

func TestBuildVarVarBranchNotAnalyzable(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			var y = input();
			if (x < y) { print(1); }
		}
	`)
	br := findNodes(p, NBranch)[0]
	if br.Analyzable() {
		t.Error("var-var branch should not be analyzable")
	}
	if p.Node(br.TrueSucc()).Kind != NNop || p.Node(br.FalseSucc()).Kind != NNop {
		t.Error("non-analyzable arms should be nops")
	}
}

func TestBuildConstCondFolds(t *testing.T) {
	p := build(t, `
		func main() {
			if (1 < 2) { print(1); } else { print(2); }
			while (0) { print(3); }
		}
	`)
	if n := len(findNodes(p, NBranch)); n != 0 {
		t.Errorf("constant conditions not folded: %d branches", n)
	}
	prints := findNodes(p, NPrint)
	if len(prints) != 1 {
		t.Fatalf("prints = %d, want only the taken arm", len(prints))
	}
	if !prints[0].Val().IsConst || prints[0].Val().Const != 1 {
		t.Errorf("kept print = %v", prints[0].Val())
	}
}

func TestBuildFlippedConstLhs(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (0 < x) { print(1); }
		}
	`)
	br := findNodes(p, NBranch)[0]
	if !br.Analyzable() {
		t.Fatal("flipped branch should be analyzable")
	}
	if br.CondOp() != pred.Gt || br.CondRHS().Const != 0 {
		t.Errorf("flipped cond = %s %v", br.CondOp(), br.CondRHS())
	}
}

func TestBuildCallWiring(t *testing.T) {
	p := build(t, `
		func f(a, b) { return a + b; }
		func main() {
			var r = f(1, 2);
			print(r);
		}
	`)
	calls := findNodes(p, NCall)
	if len(calls) != 1 {
		t.Fatalf("calls = %d", len(calls))
	}
	call := calls[0]
	f := p.ProcByName("f")
	entry := p.EntrySucc(call)
	if entry.ID != f.Entries[0] {
		t.Errorf("call enters node %d, want %d", entry.ID, f.Entries[0])
	}
	ces := p.CallExitSuccs(call)
	if len(ces) != 1 {
		t.Fatalf("call exits = %d", len(ces))
	}
	ce := ces[0]
	if cp, ep := p.CallSite(ce); cp != call.ID || ep != f.Exits[0] {
		t.Errorf("CallSite = (%d, %d), want (%d, %d)", cp, ep, call.ID, f.Exits[0])
	}
	if len(call.Args) != 2 {
		t.Errorf("args = %d", len(call.Args))
	}
	// Constant arguments are materialized into temps.
	for _, a := range call.Args {
		if p.Vars[a].Kind != VarTemp {
			t.Errorf("arg var kind = %v, want temp", p.Vars[a].Kind)
		}
	}
	if ce.Dst == NoVar {
		t.Error("call exit should carry the result")
	}
}

// TestCallSite checks the call-site links read from a call-site exit's
// predecessors: each is the unique predecessor of its kind, NoNode when
// there are zero or several, and deleted predecessors do not count.
func TestCallSite(t *testing.T) {
	const src = `
		func f() { return 1; }
		func g() { return 2; }
		func main() { var x = f(); var y = g(); print(x + y); }
	`
	// callSite names the call-site exit of the call to f, its two links,
	// and the call to g and g's exit for the mutations to wire in.
	type callSite struct{ ce, call, exit, otherCall, otherExit NodeID }
	cases := []struct {
		name       string
		mutate     func(p *Program, s callSite)
		call, exit bool // whether the link survives the mutation
	}{
		{"intact", func(p *Program, s callSite) {}, true, true},
		{"no call pred", func(p *Program, s callSite) {
			p.RemoveEdge(s.call, s.ce)
		}, false, true},
		{"two call preds", func(p *Program, s callSite) {
			p.AddEdge(s.otherCall, s.ce)
		}, false, true},
		{"no exit pred", func(p *Program, s callSite) {
			p.RemoveEdge(s.exit, s.ce)
		}, true, false},
		{"two exit preds", func(p *Program, s callSite) {
			p.AddEdge(s.otherExit, s.ce)
		}, true, false},
		{"deleted pred", func(p *Program, s callSite) {
			stale := p.NewNode(NCall, p.Node(s.ce).Proc).ID
			p.DeleteNode(stale)
			n := p.Mut(s.ce)
			n.Preds = append(n.Preds, stale)
		}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, src)
			f, g := p.ProcByName("f"), p.ProcByName("g")
			s := callSite{ce: NoNode, exit: f.Exits[0], otherCall: NoNode, otherExit: g.Exits[0]}
			for _, c := range findNodes(p, NCall) {
				switch p.Procs[c.Callee] {
				case f:
					s.call = c.ID
					s.ce = p.CallExitSuccs(c)[0].ID
				case g:
					s.otherCall = c.ID
				}
			}
			if s.ce == NoNode || s.otherCall == NoNode {
				t.Fatalf("test program lacks the calls to f and g:\n%s", p.Dump())
			}
			tc.mutate(p, s)
			wantCall, wantExit := NoNode, NoNode
			if tc.call {
				wantCall = s.call
			}
			if tc.exit {
				wantExit = s.exit
			}
			if gotCall, gotExit := p.CallSite(p.Node(s.ce)); gotCall != wantCall || gotExit != wantExit {
				t.Errorf("CallSite = (%d, %d), want (%d, %d)", gotCall, gotExit, wantCall, wantExit)
			}
		})
	}
}

func TestBuildDiscardedCallResult(t *testing.T) {
	p := build(t, `
		func f() { return 1; }
		func main() { f(); }
	`)
	ce := findNodes(p, NCallExit)[0]
	if ce.Dst != NoVar {
		t.Error("discarded result should have Dst == NoVar")
	}
	if !ce.Synthetic {
		t.Error("value-less call exit should be synthetic")
	}
}

func TestBuildWhileLoopShape(t *testing.T) {
	p := build(t, `
		func main() {
			var i = 0;
			while (i < 10) {
				i = i + 1;
			}
			print(i);
		}
	`)
	br := findNodes(p, NBranch)[0]
	// The loop must cycle: from the true arm we can get back to the branch.
	seen := map[NodeID]bool{}
	stack := []NodeID{br.TrueSucc()}
	found := false
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == br.ID {
			found = true
			break
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, p.Node(id).Succs...)
	}
	if !found {
		t.Errorf("no back edge to loop branch\n%s", p.Dump())
	}
}

func TestBuildBreakContinue(t *testing.T) {
	p := build(t, `
		func main() {
			var i = 0;
			while (1) {
				i = i + 1;
				if (i > 5) { break; }
				if (i == 2) { continue; }
				print(i);
			}
			print(i);
		}
	`)
	// while(1) folds, so the only branches are the two ifs.
	if n := len(findNodes(p, NBranch)); n != 2 {
		t.Errorf("branches = %d, want 2", n)
	}
	if n := len(findNodes(p, NPrint)); n != 2 {
		t.Errorf("prints = %d, want 2", n)
	}
}

func TestBuildInfiniteLoopPrunesTail(t *testing.T) {
	p := build(t, `
		func main() {
			while (1) { var x = input(); print(x); }
			print(99);
		}
	`)
	for _, n := range findNodes(p, NPrint) {
		if n.Val().IsConst && n.Val().Const == 99 {
			t.Error("unreachable print after infinite loop survived")
		}
	}
}

func TestBuildDeadCodeAfterReturn(t *testing.T) {
	p := build(t, `
		func main() {
			print(1);
			return;
			print(2);
		}
	`)
	if n := len(findNodes(p, NPrint)); n != 1 {
		t.Errorf("prints = %d, want 1 (dead code dropped)", n)
	}
}

func TestBuildLoadEmitsDerefAssert(t *testing.T) {
	p := build(t, `
		func main() {
			var p = alloc(2);
			p[0] = 7;
			var x = p[0];
			print(x);
		}
	`)
	asserts := findNodes(p, NAssert)
	// One assert after the store, one after the load.
	derefs := 0
	for _, a := range asserts {
		if a.APred() == (pred.Pred{Op: pred.Ne, C: 0}) {
			derefs++
		}
	}
	if derefs != 2 {
		t.Errorf("deref asserts = %d, want 2", derefs)
	}
}

func TestBuildImplicitReturnZero(t *testing.T) {
	p := build(t, `
		func f() { print(1); }
		func main() { var x = f(); print(x); }
	`)
	f := p.ProcByName("f")
	// The node before f's exit must assign 0 to f.$ret.
	exit := p.Node(f.Exits[0])
	if len(exit.Preds) != 1 {
		t.Fatalf("exit preds = %d", len(exit.Preds))
	}
	last := p.Node(exit.Preds[0])
	if last.Kind != NAssign || last.Dst != f.RetVar || last.RHS().Kind != RConst || last.RHS().Const != 0 {
		t.Errorf("implicit return node = %s", p.NodeString(last))
	}
}

func TestBuildNestedCallInExpression(t *testing.T) {
	p := build(t, `
		func g(x) { return x * 2; }
		func main() {
			var y = g(g(3)) + 1;
			print(y);
		}
	`)
	if n := len(findNodes(p, NCall)); n != 2 {
		t.Errorf("calls = %d, want 2", n)
	}
}

func TestBuildStatsAndDump(t *testing.T) {
	p := build(t, `
		var g;
		func f(a) { if (a == 0) { return 1; } return 0; }
		func main() {
			var i = 0;
			while (i < 3) {
				g = f(i);
				i = i + 1;
			}
			print(g);
		}
	`)
	st := Collect(p)
	if st.Procs != 2 {
		t.Errorf("procs = %d", st.Procs)
	}
	if st.Conditionals != 2 {
		t.Errorf("conditionals = %d, want 2", st.Conditionals)
	}
	if st.AnalyzableConds != 2 {
		t.Errorf("analyzable = %d, want 2", st.AnalyzableConds)
	}
	if st.Operations == 0 || st.AllNodes <= st.Operations {
		t.Errorf("operations = %d, all = %d", st.Operations, st.AllNodes)
	}
	d := p.Dump()
	for _, want := range []string{"proc f", "proc main", "call f", "if "} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	dot := p.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "label=T") {
		t.Error("dot output malformed")
	}
}

func TestCloneIsDeepAndEqual(t *testing.T) {
	p := build(t, `
		func f(a) { return a + 1; }
		func main() { var r = f(41); print(r); }
	`)
	q := Clone(p)
	if err := Validate(q); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if p.Dump() != q.Dump() {
		t.Error("clone dump differs from original")
	}
	// Mutating the clone must not affect the original.
	var someNode *Node
	q.LiveNodes(func(n *Node) {
		if n.Kind == NAssign && someNode == nil {
			someNode = n
		}
	})
	before := p.Dump()
	someNode.Dst = NoVar
	q.Procs[0].Entries[0] = 999
	q.Vars[0].Name = "mutated"
	if p.Dump() != before {
		t.Error("mutating clone changed original")
	}
}

func TestRedirectSuccPreservesBranchOrder(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	br := findNodes(p, NBranch)[0]
	oldTrue := br.TrueSucc()
	nop := p.NewNode(NNop, br.Proc)
	p.AddEdge(nop.ID, oldTrue)
	p.RedirectSucc(br.ID, oldTrue, nop.ID)
	if br.TrueSucc() != nop.ID {
		t.Error("true successor not redirected in place")
	}
	if br.FalseSucc() == nop.ID {
		t.Error("false successor clobbered")
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	p := build(t, `
		func f() { return 1; }
		func main() { var x = f(); print(x); }
	`)
	// Break normal form: remove the exit→callexit edge.
	ce := findNodes(p, NCallExit)[0]
	_, exit := p.CallSite(ce)
	p.RemoveEdge(exit, ce.ID)
	err := Validate(p)
	if err == nil {
		t.Fatal("Validate accepted broken normal form")
	}
	if !strings.Contains(err.Error(), "normal form") {
		t.Errorf("error = %v", err)
	}
}

func TestValidateCatchesAsymmetricEdge(t *testing.T) {
	p := build(t, `func main() { print(1); }`)
	var pr *Node
	p.LiveNodes(func(n *Node) {
		if n.Kind == NPrint {
			pr = n
		}
	})
	// Corrupt: successor without matching pred.
	pr.Succs = append(pr.Succs, pr.Succs[0])
	if err := Validate(p); err == nil {
		t.Fatal("Validate accepted asymmetric edge")
	}
}

func TestBuildErrorsPropagate(t *testing.T) {
	if _, err := Build("func main() { x = 1; }"); err == nil {
		t.Error("sema error not propagated")
	}
	if _, err := Build("func main() {"); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestBuildElseIfChain(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 1) { print(1); }
			else if (x == 2) { print(2); }
			else { print(3); }
		}
	`)
	if n := len(findNodes(p, NBranch)); n != 2 {
		t.Errorf("branches = %d, want 2", n)
	}
	if n := len(findNodes(p, NPrint)); n != 3 {
		t.Errorf("prints = %d, want 3", n)
	}
}

func TestSourceLinesRecorded(t *testing.T) {
	p := build(t, "func main() {\n  print(1);\n}\n")
	if p.SourceLines < 3 {
		t.Errorf("source lines = %d", p.SourceLines)
	}
}

func TestOperandAndKindStrings(t *testing.T) {
	if ConstOp(5).String() != "5" {
		t.Error("const operand string")
	}
	if VarOp(3).String() != "v3" {
		t.Error("var operand string")
	}
	for k := NEntry; k <= NNop; k++ {
		if strings.Contains(k.String(), "NodeKind") {
			t.Errorf("missing name for kind %d", int(k))
		}
	}
	for k := RConst; k <= RInput; k++ {
		if strings.Contains(k.String(), "RHSKind") {
			t.Errorf("missing name for rhs kind %d", int(k))
		}
	}
	for k := VarGlobal; k <= VarRet; k++ {
		if strings.Contains(k.String(), "VarKind") {
			t.Errorf("missing name for var kind %d", int(k))
		}
	}
}

func TestSimplifyContractsNops(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
			if (x == 1) { print(3); }
			while (x > 0) { x = x - 1; }
			print(x);
		}
	`)
	before := Collect(p)
	removed := Simplify(p)
	if removed == 0 {
		t.Fatal("nothing simplified (joins and loop anchors should contract)")
	}
	if err := Validate(p); err != nil {
		t.Fatalf("invalid after simplify: %v\n%s", err, p.Dump())
	}
	after := Collect(p)
	if after.Operations != before.Operations || after.Conditionals != before.Conditionals {
		t.Errorf("operations changed: %+v -> %+v", before, after)
	}
	if after.AllNodes != before.AllNodes-removed {
		t.Errorf("node accounting wrong: %d -> %d, removed %d", before.AllNodes, after.AllNodes, removed)
	}
	// Branch arms must survive.
	p.LiveNodes(func(n *Node) {
		if n.Kind == NBranch {
			for _, s := range n.Succs {
				k := p.Node(s).Kind
				if k != NAssert && k != NNop {
					t.Errorf("branch %d arm is %s", n.ID, k)
				}
			}
		}
	})
}

func TestSimplifyIdempotent(t *testing.T) {
	p := build(t, `
		func f(a) { if (a > 0) { return 1; } return 0; }
		func main() { print(f(input())); }
	`)
	Simplify(p)
	if again := Simplify(p); again != 0 {
		t.Errorf("second Simplify removed %d more nodes", again)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
}
