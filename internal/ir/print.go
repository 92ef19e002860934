package ir

import (
	"fmt"
	"strings"
)

// VarName returns a readable name for a variable id.
func (p *Program) VarName(id VarID) string {
	if id == NoVar {
		return "_"
	}
	return p.Vars[id].Name
}

func (p *Program) opString(o Operand) string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return p.VarName(o.Var)
}

// NodeString renders a node's statement in a compact readable form.
func (p *Program) NodeString(n *Node) string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("entry %s", p.Procs[n.Proc].Name)
	case NExit:
		return fmt.Sprintf("exit %s", p.Procs[n.Proc].Name)
	case NCall:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = p.VarName(a)
		}
		return fmt.Sprintf("call %s(%s)", p.Procs[n.Callee].Name, strings.Join(args, ", "))
	case NCallExit:
		if n.Dst == NoVar {
			return fmt.Sprintf("ret-from %s", p.Procs[n.Callee].Name)
		}
		return fmt.Sprintf("%s := ret-from %s", p.VarName(n.Dst), p.Procs[n.Callee].Name)
	case NAssign:
		return fmt.Sprintf("%s := %s", p.VarName(n.Dst), p.rhsString(*n.RHS()))
	case NBranch:
		return fmt.Sprintf("if %s %s %s", p.VarName(n.CondVar()), n.CondOp(), p.opString(n.CondRHS()))
	case NAssert:
		return fmt.Sprintf("assert %s %s", p.VarName(n.AVar()), n.APred())
	case NStore:
		return fmt.Sprintf("%s[%s] := %s", p.VarName(n.Ptr()), p.opString(n.Idx()), p.opString(n.Val()))
	case NPrint:
		return fmt.Sprintf("print %s", p.opString(n.Val()))
	case NNop:
		return "nop"
	}
	return n.Kind.String()
}

func (p *Program) rhsString(r RHS) string {
	switch r.Kind {
	case RConst:
		return fmt.Sprintf("%d", r.Const)
	case RCopy:
		return p.VarName(r.Src)
	case RNeg:
		return "-" + p.VarName(r.Src)
	case RByte:
		return fmt.Sprintf("byte(%s)", p.VarName(r.Src))
	case RBinop:
		return fmt.Sprintf("%s %s %s", p.opString(r.A), r.Op, p.opString(r.B))
	case RLoad:
		return fmt.Sprintf("%s[%s]", p.VarName(r.Src), p.opString(r.A))
	case RAlloc:
		return fmt.Sprintf("alloc(%s)", p.opString(r.A))
	case RInput:
		return "input()"
	}
	return r.Kind.String()
}

// Dump renders the whole ICFG as text, one procedure at a time, nodes in ID
// order with their successor lists.
func (p *Program) Dump() string {
	var sb strings.Builder
	byProc := p.NodesByProc()
	for i, pr := range p.Procs {
		fmt.Fprintf(&sb, "proc %s (entries %v, exits %v)\n", pr.Name, pr.Entries, pr.Exits)
		for _, n := range byProc[i] {
			succs := make([]string, len(n.Succs))
			for i, s := range n.Succs {
				succs[i] = fmt.Sprintf("%d", s)
			}
			fmt.Fprintf(&sb, "  n%-4d %-40s -> [%s]\n", n.ID, p.NodeString(n), strings.Join(succs, " "))
		}
	}
	return sb.String()
}

// Dot renders the ICFG in Graphviz dot format (for debugging).
func (p *Program) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph icfg {\n  node [shape=box fontname=monospace];\n")
	byProc := p.NodesByProc()
	for i, pr := range p.Procs {
		fmt.Fprintf(&sb, "  subgraph cluster_%d { label=%q;\n", pr.Index, pr.Name)
		for _, n := range byProc[i] {
			shape := ""
			if n.Kind == NBranch {
				shape = " shape=diamond"
			}
			fmt.Fprintf(&sb, "    n%d [label=\"%d: %s\"%s];\n", n.ID, n.ID, escapeDot(p.NodeString(n)), shape)
		}
		sb.WriteString("  }\n")
	}
	p.LiveNodes(func(n *Node) {
		for i, s := range n.Succs {
			label := ""
			if n.Kind == NBranch {
				if i == 0 {
					label = " [label=T]"
				} else {
					label = " [label=F]"
				}
			}
			fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", n.ID, s, label)
		}
	})
	sb.WriteString("}\n")
	return sb.String()
}

func escapeDot(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
