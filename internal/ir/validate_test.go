package ir

import (
	"strings"
	"testing"
)

// corrupt builds the canonical two-procedure program, applies the corruption,
// and asserts Validate reports an error containing want (without panicking).
func corrupt(t *testing.T, want string, mutate func(p *Program)) {
	t.Helper()
	p := build(t, `
		func add(a, b) { return a + b; }
		func main() {
			var x = input();
			if (x > 0) { print(add(x, 1)); } else { print(0); }
		}
	`)
	mutate(p)
	err := Validate(p)
	if err == nil {
		t.Fatalf("Validate accepted the corrupted program\n%s", p.Dump())
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate error %q does not mention %q", err, want)
	}
}

func firstOf(t *testing.T, p *Program, kind NodeKind) *Node {
	t.Helper()
	ns := findNodes(p, kind)
	if len(ns) == 0 {
		t.Fatalf("no %s node\n%s", kind, p.Dump())
	}
	return ns[0]
}

func TestValidateEntryPredCalleeMismatch(t *testing.T) {
	corrupt(t, "targeting callee", func(p *Program) {
		// Retarget the call at a different procedure without rewiring its
		// entry successor: the entry's call pred now disagrees.
		call := firstOf(t, p, NCall)
		call.Callee = int32(p.MainProc)
		// Keep arg count matching main's zero formals out of the picture by
		// clearing args; the entry-side check is what this test pins.
		call.Args = nil
	})
}

func TestValidateDanglingSuccessor(t *testing.T) {
	corrupt(t, "dangling successor", func(p *Program) {
		n := firstOf(t, p, NPrint)
		n.Succs = append(n.Succs, NodeID(p.NumNodes()+5))
	})
}

func TestValidateAsymmetricEdge(t *testing.T) {
	corrupt(t, "asymmetric", func(p *Program) {
		n := firstOf(t, p, NPrint)
		n.Succs = append(n.Succs, n.Succs[0]) // succ twice, pred once
	})
}

func TestValidateBranchArity(t *testing.T) {
	corrupt(t, "successors, want 2", func(p *Program) {
		b := firstOf(t, p, NBranch)
		p.RemoveEdge(b.ID, b.Succs[0])
	})
}

func TestValidateCallExitMissingExitPred(t *testing.T) {
	corrupt(t, "want 1/1", func(p *Program) {
		ce := firstOf(t, p, NCallExit)
		_, ex := p.CallSite(ce)
		p.RemoveEdge(ex, ce.ID)
	})
}

func TestValidateCallWithoutEntry(t *testing.T) {
	corrupt(t, "entry successors, want 1", func(p *Program) {
		call := firstOf(t, p, NCall)
		for _, s := range append([]NodeID(nil), call.Succs...) {
			if p.Node(s).Kind == NEntry {
				p.RemoveEdge(call.ID, s)
			}
		}
	})
}

func TestValidateInvalidCallee(t *testing.T) {
	corrupt(t, "invalid callee", func(p *Program) {
		firstOf(t, p, NCall).Callee = 99
	})
}

func TestValidateInvalidCallExitCallee(t *testing.T) {
	corrupt(t, "invalid callee", func(p *Program) {
		firstOf(t, p, NCallExit).Callee = -3
	})
}

func TestValidateBranchVarOutOfRange(t *testing.T) {
	corrupt(t, "references invalid var", func(p *Program) {
		br := firstOf(t, p, NBranch)
		br.SetCond(VarID(len(p.Vars)+7), br.CondOp(), br.CondRHS())
	})
}

func TestValidateCrossProcVarRef(t *testing.T) {
	corrupt(t, "of another proc", func(p *Program) {
		// Point an assignment's destination at a variable of the other
		// procedure.
		add := p.ProcByName("add")
		var foreign VarID = NoVar
		for _, v := range p.Vars {
			if v != nil && !v.IsGlobal() && v.Proc == add.Index {
				foreign = v.ID
				break
			}
		}
		if foreign == NoVar {
			t.Fatalf("no variable owned by add")
		}
		for i := range p.NumNodes() {
			n := p.Node(NodeID(i))
			if n != nil && n.Kind == NAssign && n.Proc == p.MainProc {
				n.Dst = foreign
				return
			}
		}
		t.Fatalf("no assignment in main")
	})
}

func TestValidateArgVarInvalid(t *testing.T) {
	corrupt(t, "argument references invalid var", func(p *Program) {
		call := firstOf(t, p, NCall)
		call.Args[0] = VarID(len(p.Vars) + 1)
	})
}

func TestValidateFormalWrongKind(t *testing.T) {
	corrupt(t, "want its own parameter", func(p *Program) {
		add := p.ProcByName("add")
		// Swap a formal for main's return slot: wrong kind and wrong owner.
		add.Formals[0] = p.Procs[p.MainProc].RetVar
	})
}

func TestValidateRetVarInvalid(t *testing.T) {
	corrupt(t, "return var", func(p *Program) {
		p.ProcByName("add").RetVar = VarID(len(p.Vars) + 2)
	})
}

func TestValidateDuplicateEntry(t *testing.T) {
	corrupt(t, "twice", func(p *Program) {
		pr := p.ProcByName("add")
		pr.Entries = append(pr.Entries, pr.Entries[0])
	})
}

func TestValidateDuplicateExit(t *testing.T) {
	corrupt(t, "twice", func(p *Program) {
		pr := p.ProcByName("add")
		pr.Exits = append(pr.Exits, pr.Exits[0])
	})
}

func TestValidateMainProcOutOfRange(t *testing.T) {
	corrupt(t, "main proc index", func(p *Program) {
		p.MainProc = len(p.Procs)
	})
}

func TestValidateInvalidNodeProcDoesNotPanic(t *testing.T) {
	// A node with an out-of-range procedure is reported once and skipped by
	// the per-kind checks rather than faulting on p.Procs[n.Proc].
	corrupt(t, "invalid proc", func(p *Program) {
		firstOf(t, p, NExit).Proc = -1
	})
	corrupt(t, "invalid proc", func(p *Program) {
		firstOf(t, p, NEntry).Proc = len(p.Procs) + 1
	})
}

func TestValidateVarArenaMismatch(t *testing.T) {
	corrupt(t, "has ID", func(p *Program) {
		for _, v := range p.Vars {
			if v != nil {
				v.ID++
				return
			}
		}
	})
}
