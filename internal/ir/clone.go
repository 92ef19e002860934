package ir

// Clone returns a deep copy of the program. The copy shares nothing mutable
// with the original, so it can be restructured independently (the
// optimization driver clones its input once, keeping the original for
// comparison runs). A transactional attempt that may be discarded uses the
// cheaper Fork instead.
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
	q.Nodes = make([]*Node, len(p.Nodes))
	// One block for the node structs and one for their edge lists: cloning
	// is the driver's hottest allocation site, and per-node allocations
	// dominate it otherwise.
	nblock := make([]Node, len(p.Nodes))
	edges := 0
	for _, n := range p.Nodes {
		if n != nil {
			edges += len(n.Succs) + len(n.Preds)
		}
	}
	eblock := make([]NodeID, 0, edges)
	for i, n := range p.Nodes {
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
		q.Nodes[i] = cn
	}
	return q
}
