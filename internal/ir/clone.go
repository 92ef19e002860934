package ir

// Clone returns a deep copy of the program. The copy shares nothing mutable
// with the original and owns everything it holds, so it can be written in
// place, bypassing Mut (the inliner does). The optimization driver never
// clones: it forks its input, and each attempt forks the working program.
func Clone(p *Program) *Program {
	q := &Program{
		MainProc:    p.MainProc,
		SourceLines: p.SourceLines,
	}
	q.Vars = make([]*Var, len(p.Vars))
	vblock := make([]Var, len(p.Vars))
	for i, v := range p.Vars {
		vblock[i] = *v
		q.Vars[i] = &vblock[i]
	}
	q.Procs = make([]*Proc, len(p.Procs))
	for i, pr := range p.Procs {
		cp := &Proc{
			Name:    pr.Name,
			Index:   pr.Index,
			RetVar:  pr.RetVar,
			Formals: append([]VarID(nil), pr.Formals...),
			Entries: append([]NodeID(nil), pr.Entries...),
			Exits:   append([]NodeID(nil), pr.Exits...),
		}
		q.Procs[i] = cp
	}
	// One block for the node structs and one for their edge lists: per-node
	// allocations would dominate a clone otherwise.
	nblock := make([]Node, p.numNodes)
	edges := 0
	p.LiveNodes(func(n *Node) { edges += len(n.Succs) + len(n.Preds) })
	eblock := make([]NodeID, 0, edges)
	q.extend(p.numNodes)
	for i := range p.numNodes {
		n := p.Node(NodeID(i))
		if n == nil {
			continue
		}
		cn := &nblock[i]
		*cn = *n
		cn.Args = append([]VarID(nil), n.Args...)
		eblock = append(eblock, n.Succs...)
		cn.Succs = eblock[len(eblock)-len(n.Succs) : len(eblock) : len(eblock)]
		eblock = append(eblock, n.Preds...)
		cn.Preds = eblock[len(eblock)-len(n.Preds) : len(eblock) : len(eblock)]
		q.store(NodeID(i), cn, nil)
	}
	return q
}
