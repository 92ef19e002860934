package analysis

import "icbe/internal/ir"

// ModSets computes, for every procedure, the set of global variables the
// procedure may modify directly or through the procedures it calls
// (Cooper/Kennedy-style MOD summary information, which the paper's
// intraprocedural optimization consults at call sites).
//
// The result maps procedure index → set of global VarIDs.
func ModSets(p *ir.Program) []map[ir.VarID]bool {
	n := len(p.Procs)
	direct := make([]map[ir.VarID]bool, n)
	calls := make([][]int, n) // call graph edges: proc → callees
	for i := 0; i < n; i++ {
		direct[i] = make(map[ir.VarID]bool)
	}
	p.LiveNodes(func(nd *ir.Node) {
		switch nd.Kind {
		case ir.NAssign:
			if nd.Dst != ir.NoVar && p.Vars[nd.Dst].IsGlobal() {
				direct[nd.Proc][nd.Dst] = true
			}
		case ir.NCallExit:
			if nd.Dst != ir.NoVar && p.Vars[nd.Dst].IsGlobal() {
				direct[nd.Proc][nd.Dst] = true
			}
		case ir.NCall:
			calls[nd.Proc] = append(calls[nd.Proc], int(nd.Callee))
		}
	})

	// Transitive closure over the call graph: iterate to a fixpoint
	// (programs are small; a simple round-robin loop suffices and is easy
	// to verify).
	changed := true
	for changed {
		changed = false
		for caller := 0; caller < n; caller++ {
			for _, callee := range calls[caller] {
				for g := range direct[callee] {
					if !direct[caller][g] {
						direct[caller][g] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}
