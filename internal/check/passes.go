package check

import (
	"errors"
	"fmt"
	"slices"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// structurePass surfaces ir.Validate's structural and linkage violations
// (arena consistency, edge symmetry, call-site normal form, call↔entry↔exit
// linkage, variable references) as findings, one per violation.
type structurePass struct{}

func (structurePass) Name() string { return "structure" }
func (structurePass) Kind() Kind   { return Invariant }
func (structurePass) Run(cx *Context) []Finding {
	err := ir.Validate(cx.Prog)
	if err == nil {
		return nil
	}
	var out []Finding
	for _, e := range flattenErrors(err) {
		out = append(out, Finding{Pass: "structure", Node: ir.NoNode, Msg: e.Error()})
	}
	return out
}

// flattenErrors unwraps errors.Join trees into leaves.
func flattenErrors(err error) []error {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		var out []error
		for _, e := range joined.Unwrap() {
			out = append(out, flattenErrors(e)...)
		}
		return out
	}
	return []error{err}
}

// passScratch is the lint passes' working memory. No finding points into
// it, so one report's scratch is the next one's.
type passScratch struct {
	byProc [][]*ir.Node
	reach  reach
	flow   flowIndex
}

// bucket fills the scratch's buckets with p's live nodes by procedure.
func (ps *passScratch) bucket(p *ir.Program) [][]*ir.Node {
	b := slices.Grow(ps.byProc[:0], len(p.Procs))[:len(p.Procs)]
	for i := range b {
		b[i] = b[i][:0]
	}
	p.LiveNodes(func(n *ir.Node) {
		if n.Proc >= 0 && n.Proc < len(b) {
			b[n.Proc] = append(b[n.Proc], n)
		}
	})
	ps.byProc = b
	return b
}

// reach computes per-procedure structural reachability sets: BFS from the
// procedure's entries over same-procedure successor edges. This is exactly
// the rule restructure's pruning uses, so a node outside the set after an
// apply is a node pruning should have removed. One mark array serves every
// procedure: a node is in the current set when its mark is the current
// walk's number.
type reach struct {
	mark  []int32 // by NodeID
	walk  int32
	stack []ir.NodeID
}

// newReach readies the scratch's reach for p, every set empty.
func (ps *passScratch) newReach(p *ir.Program) *reach {
	r := &ps.reach
	r.mark, r.walk = resize(r.mark, p.NumNodes()), 0
	return r
}

// from replaces the set with the nodes reachable from pr's entries.
func (r *reach) from(p *ir.Program, pr *ir.Proc) {
	r.walk++
	r.stack = r.stack[:0]
	for _, e := range pr.Entries {
		if p.Node(e) != nil && r.mark[e] != r.walk {
			r.mark[e] = r.walk
			r.stack = append(r.stack, e)
		}
	}
	for len(r.stack) > 0 {
		id := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, s := range p.Node(id).Succs {
			sn := p.Node(s)
			if sn == nil || sn.Proc != pr.Index || r.mark[s] == r.walk {
				continue
			}
			r.mark[s] = r.walk
			r.stack = append(r.stack, s)
		}
	}
}

func (r *reach) has(id ir.NodeID) bool {
	return id >= 0 && int(id) < len(r.mark) && r.mark[id] == r.walk
}

// unreachablePass flags live nodes not reachable from their procedure's
// entries. Lowering never emits them and restructuring prunes them, so one
// left behind means a restructuring kept dead code alive (or wired a split
// copy to nothing).
type unreachablePass struct{}

func (unreachablePass) Name() string { return "unreachable-node" }
func (unreachablePass) Kind() Kind   { return Invariant }
func (unreachablePass) Run(cx *Context) []Finding {
	var out []Finding
	seen := cx.scr().newReach(cx.Prog)
	byProc := cx.nodesByProc()
	for i, pr := range cx.Prog.Procs {
		if pr == nil {
			continue
		}
		seen.from(cx.Prog, pr)
		for _, n := range byProc[i] {
			if !seen.has(n.ID) {
				out = append(out, Finding{Pass: "unreachable-node", Node: n.ID, Line: int(n.Line),
					Msg: fmt.Sprintf("node (%s) unreachable from proc %q entries", n.Kind, pr.Name)})
			}
		}
	}
	return out
}

// useBeforeDefPass flags reads of a procedure's own variables on paths
// where no assignment can have happened yet. Lowering zero-initializes
// every local and return variable at declaration, so compiled programs have
// none; a finding after restructuring means path duplication detached a
// use from its defining assignment.
type useBeforeDefPass struct{}

func (useBeforeDefPass) Name() string { return "use-before-def" }
func (useBeforeDefPass) Kind() Kind   { return Invariant }
func (useBeforeDefPass) Run(cx *Context) []Finding {
	var out []Finding
	ix := cx.scr().newFlowIndex(cx.Prog, cx.nodesByProc())
	seen := cx.scr().newReach(cx.Prog)
	var reportedHere []ir.VarID
	for _, pr := range cx.Prog.Procs {
		if pr == nil {
			continue
		}
		af := analyzeAssignments(cx.Prog, pr.Index, ix)
		seen.from(cx.Prog, pr)
		for _, n := range af.nodes {
			if !seen.has(n.ID) {
				continue // unreachable nodes are the unreachable-node pass's finding
			}
			reportedHere = reportedHere[:0]
			forEachRead(n, func(v ir.VarID) {
				may, owned := af.maybeAssignedIn(n.ID, v)
				if !owned || may || slices.Contains(reportedHere, v) {
					return
				}
				reportedHere = append(reportedHere, v)
				name := fmt.Sprintf("v%d", int(v))
				if v >= 0 && int(v) < len(cx.Prog.Vars) && cx.Prog.Vars[v] != nil {
					name = cx.Prog.Vars[v].Name
				}
				out = append(out, Finding{Pass: "use-before-def", Node: n.ID, Line: int(n.Line),
					Msg: fmt.Sprintf("%q read before any assignment", name)})
			})
		}
	}
	return out
}

// sccpConsistencyPass flags executable assertions the oracle proves can
// never hold. Assertions materialize branch edge facts, so a must-fail
// assertion means control reaches an edge whose guarding branch cannot take
// it — the signature of a restructuring that kept the wrong arm.
type sccpConsistencyPass struct{}

func (sccpConsistencyPass) Name() string { return "sccp-consistency" }
func (sccpConsistencyPass) Kind() Kind   { return Invariant }
func (sccpConsistencyPass) Run(cx *Context) []Finding {
	var out []Finding
	for _, id := range cx.SCCP.MustFailAsserts() {
		n := cx.Prog.Node(id)
		if n == nil {
			continue
		}
		out = append(out, Finding{Pass: "sccp-consistency", Node: id, Line: int(n.Line),
			Msg: fmt.Sprintf("reachable assertion (v%d %s) can never hold: variable is %s on entry",
				int(n.AVar()), n.APred(), cx.SCCP.ValueAt(id, n.AVar()))})
	}
	return out
}

// RecallCount counts the analyzable branches of the program whose outcome
// the oracle decides — after optimization, the branches ICBE could have
// eliminated but did not (the recall metric reported by the driver).
func RecallCount(p *ir.Program, s *SCCP) int {
	n := 0
	p.LiveNodes(func(nd *ir.Node) {
		if nd.Kind == ir.NBranch && nd.Analyzable() && s.BranchOutcome(nd.ID) != pred.Unknown {
			n++
		}
	})
	return n
}

// FirstFinding returns the first finding of the named pass, for error
// reporting. It panics on a released report.
func (r *Report) FirstFinding(pass string) (Finding, error) {
	r.live()
	for _, f := range r.Findings {
		if f.Pass == pass {
			return f, nil
		}
	}
	return Finding{}, errors.New("check: no finding for pass " + pass)
}
