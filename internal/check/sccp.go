package check

import (
	"fmt"
	"math"
	"slices"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Value is a lattice element for one variable at one program point: ⊤ (no
// executable computation seen yet), a single constant, a small integer
// interval [lo,hi], or ⊥ (provably more than the lattice models). Intervals
// let comparisons against bounds fold — byte() results live in [0,255], and
// branch-edge assertions clamp the tested variable — which is what makes
// the oracle decide branches the flow-insensitive lattice could not.
type Value struct {
	kind uint8 // vTop, vConst, vRange, vBottom
	// lo is the constant for vConst; [lo,hi] the interval for vRange.
	// vBottom carries the full int64 range so bound arithmetic is uniform.
	lo, hi int64
}

const (
	vTop uint8 = iota
	vConst
	vBottom
	vRange
)

func top() Value             { return Value{} }
func constant(c int64) Value { return Value{kind: vConst, lo: c, hi: c} }
func bottom() Value          { return Value{kind: vBottom, lo: math.MinInt64, hi: math.MaxInt64} }

// rangeValue builds the normalized lattice element covering [lo,hi]:
// singletons are constants and the full int64 range is ⊥, so structural
// equality keeps meaning lattice equality.
func rangeValue(lo, hi int64) Value {
	switch {
	case lo == hi:
		return constant(lo)
	case lo == math.MinInt64 && hi == math.MaxInt64:
		return bottom()
	}
	return Value{kind: vRange, lo: lo, hi: hi}
}

// IsBottom reports the ⊥ element.
func (v Value) IsBottom() bool { return v.kind == vBottom }

// Const returns the constant and true for a const element.
func (v Value) Const() (int64, bool) { return v.lo, v.kind == vConst }

// rng returns the element's bounds as a pred range. ⊤ has no bounds; the
// callers guard it.
func (v Value) rng() pred.Range { return pred.Range{Lo: v.lo, Hi: v.hi} }

func (v Value) String() string {
	switch v.kind {
	case vTop:
		return "⊤"
	case vConst:
		return fmt.Sprintf("%d", v.lo)
	case vRange:
		return fmt.Sprintf("[%d,%d]", v.lo, v.hi)
	}
	return "⊥"
}

// meet is the lattice meet: ⊤ is the identity, an interval absorbs the
// constants and sub-intervals it contains, and incomparable elements fall to
// ⊥ (no interval hulling, so descending chains stay short).
func meet(a, b Value) Value {
	switch {
	case a.kind == vTop:
		return b
	case b.kind == vTop:
		return a
	case a == b:
		return a
	case a.kind == vBottom || b.kind == vBottom:
		return bottom()
	case a.lo <= b.lo && b.hi <= a.hi:
		return a
	case b.lo <= a.lo && a.hi <= b.hi:
		return b
	}
	return bottom()
}

// cell is one variable slot of a program-point state: its value element plus
// an optional copy-chain root. When alias is set, the slot's variable
// provably holds the same value as the root variable at this point, so a
// branch-edge assertion about either refines the whole group. The value is
// held flat so its kind and the alias share one word: 24 bytes, where a
// Value field plus an alias would take 32.
type cell struct {
	lo, hi int64
	alias  ir.VarID
	kind   uint8
}

func mkCell(v Value, alias ir.VarID) cell {
	return cell{lo: v.lo, hi: v.hi, alias: alias, kind: v.kind}
}

// value returns the cell's value element.
func (c cell) value() Value { return Value{kind: c.kind, lo: c.lo, hi: c.hi} }

// space is the state layout of one procedure: the globals (a prefix shared
// by every space, in the same slot order) followed by the procedure's own
// variables. ir.Validate guarantees a node references only globals and its
// own procedure's variables, so per-point states never need the whole arena.
type space struct {
	// slots maps VarID → slot, -1 when the variable is not in this space.
	slots []int32
	// vars maps slot → VarID.
	vars []ir.VarID
}

func (sp *space) slot(v ir.VarID) int {
	if v < 0 || int(v) >= len(sp.slots) {
		return -1
	}
	return int(sp.slots[v])
}

// layout is the state geometry of one program: a space per procedure, the
// fallback space for nodes whose procedure index is out of range (possible
// only on fuzz-mutated graphs), and the count of globals every space puts
// first.
type layout struct {
	p        *ir.Program
	spaces   []*space
	fallback *space
	nGlob    int
}

func newLayout(p *ir.Program) layout {
	l := layout{p: p}
	var globals []ir.VarID
	for _, v := range p.Vars {
		if v != nil && v.IsGlobal() {
			globals = append(globals, v.ID)
		}
	}
	l.nGlob = len(globals)
	mkSpace := func() *space {
		sp := &space{slots: make([]int32, len(p.Vars)), vars: append([]ir.VarID(nil), globals...)}
		for i := range sp.slots {
			sp.slots[i] = -1
		}
		for s, v := range globals {
			sp.slots[v] = int32(s)
		}
		return sp
	}
	l.fallback = mkSpace()
	l.spaces = make([]*space, len(p.Procs))
	for pi := range p.Procs {
		sp := mkSpace()
		for _, v := range p.Vars {
			if v != nil && !v.IsGlobal() && v.Proc == pi {
				sp.slots[v.ID] = int32(len(sp.vars))
				sp.vars = append(sp.vars, v.ID)
			}
		}
		l.spaces[pi] = sp
	}
	return l
}

func (l *layout) spaceOf(proc int) *space {
	if proc >= 0 && proc < len(l.spaces) {
		return l.spaces[proc]
	}
	return l.fallback
}

func (l *layout) isGlobalVar(v ir.VarID) bool {
	return v >= 0 && int(v) < len(l.p.Vars) && l.p.Vars[v] != nil && l.p.Vars[v].IsGlobal()
}

// globalCell extracts one global slot for transport into another space,
// dropping aliases rooted in non-global variables.
func (l *layout) globalCell(st []cell, g int) cell {
	if g >= len(st) {
		return mkCell(bottom(), ir.NoVar)
	}
	c := st[g]
	if c.alias != ir.NoVar && !l.isGlobalVar(c.alias) {
		c.alias = ir.NoVar
	}
	return c
}

// convert carries a state into another procedure's space across a malformed
// cross-procedure edge: globals survive, everything else bottoms out.
func (l *layout) convert(st []cell, to *space) []cell {
	out := make([]cell, len(to.vars))
	for i := range out {
		if i < l.nGlob {
			out[i] = l.globalCell(st, i)
		} else {
			out[i] = mkCell(bottom(), ir.NoVar)
		}
	}
	return out
}

// SCCP is the result of one forward conditional constant propagation run:
// per-node entry states (a cell per in-scope variable) plus the
// executable-node set, computed with a worklist over the ICFG in the
// Wegman–Zadeck style. The engine is branch-sensitive: only feasible branch
// arms are entered, and on each arm the tested variable's cell (and its
// copy-propagation group) is refined by the implied constant or interval.
// Calls and returns are handled context-insensitively: entry states meet
// across call sites, and a call-site exit combines its caller state (locals
// survive the call in the caller's frame) with the callee exit's globals and
// return value. Facts are read per point, through ValueAt, BranchOutcome and
// EdgeFacts.
//
// The facts live in memory the Workspace that computed them recycles; once
// the result is released (Report.Release), every read panics.
type SCCP struct {
	layout
	in       [][]cell
	exec     []bool
	mustFail []ir.NodeID
	// ceRet holds, per call-site-exit node, the settled return value its
	// callee exit delivered (⊥ when no exit fed it). EdgeFacts needs it to
	// replay the call-site-exit transfer function after the run is over.
	ceRet []Value
	// saturated is the sound give-up state for pathological graphs whose
	// propagation exceeds the step budget: everything is reported reachable
	// and nothing decided.
	saturated bool
	// mem holds the facts above and goes back to ws on release, after
	// which released is set.
	ws       *Workspace
	mem      *sccpMem
	released bool
}

// RunSCCP computes the oracle facts of a program. It is read-only, total,
// and panic-free even on malformed graphs (every node, variable, and
// procedure reference is bounds-checked), which the fuzz harness relies on.
func RunSCCP(p *ir.Program) *SCCP { return new(Workspace).runSCCP(p) }

// runSCCP is RunSCCP on memory the workspace recycles: the result's states
// and node tables are carved from a released result's memory when there is
// one.
func (ws *Workspace) runSCCP(p *ir.Program) *SCCP {
	m := ws.take()
	r := ws.newRun(p, m)
	r.seed()
	r.drain()
	s := &SCCP{layout: r.layout, saturated: r.saturated, ws: ws, mem: m}
	if !r.saturated {
		s.in, s.exec = r.in, r.exec
		m.ceRet = resize(m.ceRet, len(r.ces))
		for i := range r.ces {
			m.ceRet[i] = r.retOf(ir.NodeID(i))
		}
		s.ceRet = m.ceRet
		// Executable assertions whose own variable cannot satisfy the
		// predicate are the sccp-consistency findings (a correct
		// restructuring only keeps an assert on edges consistent with the
		// branch it materializes).
		m.mustFail = m.mustFail[:0]
		p.LiveNodes(func(n *ir.Node) {
			if int(n.ID) < len(r.mustFail) && r.mustFail[n.ID] {
				m.mustFail = append(m.mustFail, n.ID)
			}
		})
		s.mustFail = m.mustFail
	}
	return s
}

// live panics when the result was released: its memory may already hold
// another program's facts, and an oracle read from it would be vacuous.
func (s *SCCP) live() {
	if s.released {
		panic("check: read of a released SCCP")
	}
}

// release hands the result's memory back to its workspace. Releasing twice
// is a no-op.
func (s *SCCP) release() {
	if s.released {
		return
	}
	s.ws.free = append(s.ws.free, s.mem)
	*s = SCCP{released: true}
}

func (s *SCCP) stateOf(n ir.NodeID) []cell {
	if s.saturated || n < 0 || int(n) >= len(s.in) {
		return nil
	}
	return s.in[n]
}

// Reachable reports whether the oracle proved the node executable. False
// means statically unreachable (the proof is conservative: unreachable nodes
// may still be reported reachable, never the reverse).
func (s *SCCP) Reachable(n ir.NodeID) bool {
	s.live()
	if s.saturated {
		return s.p.Node(n) != nil
	}
	return n >= 0 && int(n) < len(s.exec) && s.exec[n]
}

// ValueAt returns the variable's lattice element on entry to the given node
// (⊥ when the node is unreachable, deleted, or out of range).
func (s *SCCP) ValueAt(n ir.NodeID, v ir.VarID) Value {
	s.live()
	nd := s.p.Node(n)
	st := s.stateOf(n)
	if nd == nil || st == nil {
		return bottom()
	}
	return valueOf(st, s.spaceOf(nd.Proc), v)
}

// BranchOutcome decides a branch's condition from its entry state: pred.True
// / pred.False when the comparison folds over the operand elements,
// pred.Unknown otherwise. Branches in unreachable code are never decided —
// their cells hold no executable fact, and grading them would manufacture
// spurious disagreements with the path-sensitive backward analysis.
func (s *SCCP) BranchOutcome(b ir.NodeID) pred.Outcome {
	s.live()
	n := s.p.Node(b)
	st := s.stateOf(b)
	if n == nil || n.Kind != ir.NBranch || st == nil {
		return pred.Unknown
	}
	return condOutcome(n, st, s.spaceOf(n.Proc))
}

// MustFailAsserts returns the executable assert nodes whose predicate can
// never hold on any modeled path, in node order. On a well-formed program
// this is empty: an assert only becomes executable through edges consistent
// with the branch that materialized it.
func (s *SCCP) MustFailAsserts() []ir.NodeID {
	s.live()
	return append([]ir.NodeID(nil), s.mustFail...)
}

// sccpRun is the in-flight worklist state of one RunSCCP call. The
// workspace keeps it between calls, so its tables and buffers are reused;
// in, exec and the entry states belong to the result's memory, cells.
type sccpRun struct {
	layout
	in       [][]cell
	exec     []bool
	cells    *slab
	mustFail []bool
	ces      []*ceState
	// ceBuf holds the call-site exits' ceStates, handed out in order;
	// newRun sizes it for all of them. A state is reached only through
	// ces, so an append past its capacity would leave behind only copies.
	ceBuf []ceState
	queue []ir.NodeID
	head  int
	inWL  []bool
	// scratch holds the state a transfer function or recomputeCE is
	// building. Nothing keeps it: meetIn, feedCallHalf and convert copy what
	// they store.
	scratch []cell
	// entry holds the callee entry state processCall builds, kept apart
	// from scratch because recomputeCE rewrites scratch inside processCall's
	// successor loop; glb holds the exit globals feedExitHalf feeds.
	entry, glb []cell
	// steps bounds worklist processing; exceeding the budget (possible only
	// on adversarial graphs whose interval flows keep descending) flips
	// saturated, the sound give-up state.
	steps     int
	budget    int
	saturated bool
}

// ceState accumulates the two halves a call-site exit joins: the caller's
// state at the call (locals survive the call in the caller's frame) and the
// callee exit's globals and return value. The node's entry state is
// recomputed whenever either half changes and both are present — the
// interprocedural two-predecessor rule.
type ceState struct {
	callSt  []cell
	hasCall bool
	exitGlb []cell
	ret     Value
	hasExit bool
}

// newRun readies the workspace's run for p, its result's states to be
// carved from m. The slab is sized to hold every live node's entry state
// and every call-site exit's two halves, each allocated once per run.
func (ws *Workspace) newRun(p *ir.Program, m *sccpMem) *sccpRun {
	r := &ws.run
	r.layout = newLayout(p)
	total, cells, nce := 0, 0, 0
	p.LiveNodes(func(n *ir.Node) {
		k := len(r.spaceOf(n.Proc).vars)
		total += k + 1
		cells += k
		if n.Kind == ir.NCallExit {
			cells += k + r.nGlob
			nce++
		}
	})
	r.budget = 4096 + 32*total
	n := p.NumNodes()
	m.in, m.exec = resize(m.in, n), resize(m.exec, n)
	m.cells.reset(cells)
	r.in, r.exec, r.cells = m.in, m.exec, &m.cells
	r.mustFail, r.ces, r.inWL = resize(r.mustFail, n), resize(r.ces, n), resize(r.inWL, n)
	r.ceBuf = slices.Grow(r.ceBuf[:0], nce)
	r.queue, r.head = r.queue[:0], 0
	r.steps, r.saturated = 0, false
	return r
}

// retOf is the return value a call-site exit binds: what its callee exits
// delivered, ⊥ before any did.
func (r *sccpRun) retOf(id ir.NodeID) Value {
	if id >= 0 && int(id) < len(r.ces) {
		if ce := r.ces[id]; ce != nil && ce.hasExit {
			return ce.ret
		}
	}
	return bottom()
}

// seed builds the program's initial state — globals at their declared
// initial values, main's own variables at the interpreter's implicit zero —
// and pushes it into main's first entry, matching where execution starts.
func (r *sccpRun) seed() {
	p := r.p
	if p.MainProc < 0 || p.MainProc >= len(p.Procs) || p.Procs[p.MainProc] == nil {
		return
	}
	es := p.Procs[p.MainProc].Entries
	if len(es) == 0 {
		return
	}
	sp := r.spaceOf(p.MainProc)
	st := resize(r.scratch, len(sp.vars))
	r.scratch = st
	for i, v := range sp.vars {
		val := constant(0)
		if i < r.nGlob && int(v) < len(p.Vars) && p.Vars[v] != nil {
			val = constant(p.Vars[v].Init)
		}
		st[i] = mkCell(val, ir.NoVar)
	}
	en := p.Node(es[0])
	if en == nil {
		return
	}
	r.pushState(es[0], st, sp)
}

func (r *sccpRun) enqueue(id ir.NodeID) {
	if id < 0 || int(id) >= len(r.inWL) || r.inWL[id] {
		return
	}
	r.inWL[id] = true
	r.queue = append(r.queue, id)
}

func (r *sccpRun) drain() {
	for r.head < len(r.queue) {
		if r.steps >= r.budget {
			r.saturated = true
			return
		}
		r.steps++
		id := r.queue[r.head]
		r.head++
		r.inWL[id] = false
		r.process(id)
	}
}

// fill copies st into the buffer *buf, growing it when needed, to be edited
// and pushed before the buffer's next fill.
func fill(buf *[]cell, st []cell) []cell {
	*buf = append((*buf)[:0], st...)
	return *buf
}

// meetCells meets src into dst elementwise, reporting whether dst changed.
// Aliases survive only when both sides agree; length mismatches (possible
// only across fuzz-mutated cross-procedure edges) bottom out the tail.
func meetCells(dst, src []cell) bool {
	changed := false
	m := len(dst)
	if len(src) < m {
		m = len(src)
	}
	for i := 0; i < m; i++ {
		nv := meet(dst[i].value(), src[i].value())
		na := dst[i].alias
		if na != src[i].alias {
			na = ir.NoVar
		}
		if nv != dst[i].value() || na != dst[i].alias {
			dst[i] = mkCell(nv, na)
			changed = true
		}
	}
	for i := m; i < len(dst); i++ {
		if dst[i].kind != vBottom || dst[i].alias != ir.NoVar {
			dst[i] = mkCell(bottom(), ir.NoVar)
			changed = true
		}
	}
	return changed
}

// meetIn meets a state into the node's entry state, marking the node
// executable on first arrival and re-enqueueing it on any change.
func (r *sccpRun) meetIn(id ir.NodeID, st []cell) {
	if id < 0 || int(id) >= len(r.in) {
		return
	}
	if r.in[id] == nil {
		r.in[id] = r.cells.clone(st)
		r.exec[id] = true
		r.enqueue(id)
		return
	}
	if meetCells(r.in[id], st) {
		r.enqueue(id)
	}
}

// pushState propagates a state along one plain control edge, converting
// between procedure spaces when a malformed edge crosses procedures (globals
// survive the conversion, everything else bottoms out).
func (r *sccpRun) pushState(to ir.NodeID, st []cell, from *space) {
	n := r.p.Node(to)
	if n == nil {
		return
	}
	tsp := r.spaceOf(n.Proc)
	if tsp != from {
		st = r.convert(st, tsp)
	}
	r.meetIn(to, st)
}

func valueOf(st []cell, sp *space, v ir.VarID) Value {
	s := sp.slot(v)
	if s < 0 || s >= len(st) {
		return bottom()
	}
	return st[s].value()
}

func operandValue(st []cell, sp *space, o ir.Operand) Value {
	if o.IsConst {
		return constant(o.Const)
	}
	return valueOf(st, sp, o.Var)
}

// rootOf resolves a variable's copy-chain root in the state: the alias
// recorded in its slot, or the variable itself.
func rootOf(st []cell, sp *space, v ir.VarID) ir.VarID {
	s := sp.slot(v)
	if s < 0 || s >= len(st) {
		return v
	}
	if a := st[s].alias; a != ir.NoVar {
		return a
	}
	return v
}

// assign writes dst := (v, aliased to root) into the state and severs every
// stale equality recorded against the overwritten variable.
func assign(st []cell, sp *space, dst ir.VarID, v Value, root ir.VarID) {
	if root == dst {
		root = ir.NoVar
	}
	ds := sp.slot(dst)
	for i := range st {
		if i != ds && st[i].alias == dst {
			st[i].alias = ir.NoVar
		}
	}
	if ds >= 0 && ds < len(st) {
		st[ds] = mkCell(v, root)
	}
}

// refineGroup narrows the asserted variable's cell — and every cell in its
// copy-propagation group — by the predicate p with pred's range
// refinement. It reports false only when the asserted variable itself
// cannot satisfy the predicate: the path is infeasible (a branch arm) or
// the assertion must fail. A contradiction
// on another group member leaves that member unchanged instead; the group
// bookkeeping is conservative and must never manufacture a proof.
func refineGroup(st []cell, sp *space, v ir.VarID, p pred.Pred) bool {
	okOwn := true
	root := rootOf(st, sp, v)
	for i := range st {
		if i >= len(sp.vars) {
			break
		}
		vi := sp.vars[i]
		ri := st[i].alias
		if ri == ir.NoVar {
			ri = vi
		}
		if ri != root && vi != root {
			continue
		}
		if st[i].kind == vTop {
			continue // no executable value yet: nothing to narrow
		}
		nr, ok := st[i].value().rng().Refine(p)
		if !ok {
			if vi == v {
				okOwn = false
			}
			continue
		}
		st[i] = mkCell(rangeValue(nr.Lo, nr.Hi), st[i].alias)
	}
	return okOwn
}

// condOutcome folds a branch's condition over its operand elements in the
// given state with pred's range comparison. ⊤ operands carry no executable
// value and malformed operators (fuzz graphs) decide nothing: both stay
// Unknown.
func condOutcome(n *ir.Node, st []cell, sp *space) pred.Outcome {
	l, r := valueOf(st, sp, n.CondVar()), operandValue(st, sp, n.CondRHS())
	if !validOp(n.CondOp()) || l.kind == vTop || r.kind == vTop {
		return pred.Unknown
	}
	return l.rng().Compare(n.CondOp(), r.rng())
}

// transfer is the transfer function of every node kind whose successors
// all receive one state: the state n sends on from its entry state in (an
// assertion that cannot hold sends none, nil). ret is the value a call-site
// exit binds. A changed state is built in *buf; an unchanged one is in
// itself. Calls and exits reach their interprocedural successors through
// processCall and processExit; toward any other successor they pass their
// state through, as here.
func (l *layout) transfer(n *ir.Node, in []cell, ret Value, buf *[]cell) []cell {
	sp := l.spaceOf(n.Proc)
	switch n.Kind {
	case ir.NAssign:
		out := fill(buf, in)
		v, root := evalRHS(in, sp, n)
		assign(out, sp, n.Dst, v, root)
		return out
	case ir.NAssert:
		if !validOp(n.APred().Op) {
			return in
		}
		out := fill(buf, in)
		if !refineGroup(out, sp, n.AVar(), n.APred()) {
			return nil // statically failing: control cannot continue past it
		}
		return out
	case ir.NCallExit:
		if n.Dst == ir.NoVar {
			return in
		}
		out := fill(buf, in)
		assign(out, sp, n.Dst, ret, ir.NoVar)
		return out
	}
	return in // NEntry, NCall, NExit, NStore, NPrint, NNop
}

// arm is the branch-arm transfer function: the state a branch whose
// condition folds to o sends along out-edge slot, refined on the tested
// variable's copy group by the predicate the arm implies — the branch-edge
// assertion that makes the oracle conditional. An infeasible arm, or one
// whose assertion the tested variable cannot satisfy, sends none (nil);
// malformed extra out-edges (fuzz graphs) carry the state unrefined.
func (l *layout) arm(n *ir.Node, in []cell, o pred.Outcome, slot int, buf *[]cell) []cell {
	if slot >= 2 {
		return in
	}
	if (slot == 0 && o == pred.False) || (slot == 1 && o == pred.True) {
		return nil
	}
	if !n.CondRHS().IsConst || !validOp(n.CondOp()) {
		return in
	}
	p := pred.Pred{Op: n.CondOp(), C: n.CondRHS().Const}
	if slot == 1 {
		p = p.Negate()
	}
	out := fill(buf, in)
	if !refineGroup(out, l.spaceOf(n.Proc), n.CondVar(), p) {
		return nil
	}
	return out
}

func (r *sccpRun) process(id ir.NodeID) {
	n := r.p.Node(id)
	if n == nil || int(id) >= len(r.in) {
		return
	}
	st := r.in[id]
	if st == nil {
		return
	}
	sp := r.spaceOf(n.Proc)
	switch n.Kind {
	case ir.NBranch:
		o := condOutcome(n, st, sp)
		for slot, s := range n.Succs {
			if out := r.arm(n, st, o, slot, &r.scratch); out != nil {
				r.pushState(s, out, sp)
			}
		}
	case ir.NCall:
		r.processCall(n, st, sp)
	case ir.NExit:
		r.processExit(n, st, sp)
	default:
		out := r.transfer(n, st, r.retOf(id), &r.scratch)
		if n.Kind == ir.NAssert {
			r.mustFail[id] = out == nil
		}
		if out != nil {
			for _, s := range n.Succs {
				r.pushState(s, out, sp)
			}
		}
	}
}

// processCall builds the callee's entry state — formals bound to the
// argument values, other callee variables at the interpreter's implicit
// zero, globals carried over — and feeds the caller half of each call-site
// exit. Entry states meet across call sites (context-insensitive), but
// split entries keep their own states, so restructured specialized entries
// stay specialized.
func (r *sccpRun) processCall(n *ir.Node, st []cell, sp *space) {
	callee := int(n.Callee)
	calleeOK := callee >= 0 && callee < len(r.p.Procs) && r.p.Procs[callee] != nil
	es := r.entry[:0]
	if calleeOK {
		csp := r.spaceOf(callee)
		for i := range csp.vars {
			if i < r.nGlob {
				es = append(es, r.globalCell(st, i))
			} else {
				es = append(es, mkCell(constant(0), ir.NoVar))
			}
		}
		for i, formal := range r.p.Procs[callee].Formals {
			fs := csp.slot(formal)
			if fs < 0 || fs >= len(es) {
				continue
			}
			v := bottom()
			if i < len(n.Args) {
				v = valueOf(st, sp, n.Args[i])
			}
			es[fs] = mkCell(v, ir.NoVar)
		}
		r.entry = es
	}
	for _, s := range n.Succs {
		sn := r.p.Node(s)
		switch {
		case sn == nil:
		case sn.Kind == ir.NCallExit:
			r.feedCallHalf(sn, st, sp)
		case sn.Kind == ir.NEntry && calleeOK && sn.Proc == callee:
			r.meetIn(s, es)
		default:
			r.pushState(s, st, sp)
		}
	}
}

// processExit feeds the callee half — globals and return value — of each
// call-site-exit successor. Split exits feed only the call-site exits wired
// to them, so restructured specialized returns stay specialized.
func (r *sccpRun) processExit(n *ir.Node, st []cell, sp *space) {
	ret := bottom()
	if n.Proc >= 0 && n.Proc < len(r.p.Procs) && r.p.Procs[n.Proc] != nil {
		ret = valueOf(st, sp, r.p.Procs[n.Proc].RetVar)
	}
	for _, s := range n.Succs {
		sn := r.p.Node(s)
		switch {
		case sn == nil:
		case sn.Kind == ir.NCallExit:
			r.feedExitHalf(sn, st, ret)
		default:
			r.pushState(s, st, sp)
		}
	}
}

func (r *sccpRun) ceOf(id ir.NodeID) *ceState {
	if id < 0 || int(id) >= len(r.ces) {
		return nil
	}
	if r.ces[id] == nil {
		r.ceBuf = append(r.ceBuf, ceState{})
		r.ces[id] = &r.ceBuf[len(r.ceBuf)-1]
	}
	return r.ces[id]
}

func (r *sccpRun) feedCallHalf(ce *ir.Node, st []cell, sp *space) {
	ces := r.ceOf(ce.ID)
	if ces == nil {
		return
	}
	tsp := r.spaceOf(ce.Proc)
	if tsp != sp {
		st = r.convert(st, tsp)
	}
	changed := !ces.hasCall
	ces.hasCall = true
	if ces.callSt == nil {
		ces.callSt = r.cells.clone(st)
		changed = true
	} else if meetCells(ces.callSt, st) {
		changed = true
	}
	if changed {
		r.recomputeCE(ce)
	}
}

func (r *sccpRun) feedExitHalf(ce *ir.Node, st []cell, ret Value) {
	ces := r.ceOf(ce.ID)
	if ces == nil {
		return
	}
	glb := r.glb[:0]
	for g := 0; g < r.nGlob; g++ {
		glb = append(glb, r.globalCell(st, g))
	}
	r.glb = glb
	changed := !ces.hasExit
	if changed {
		ces.hasExit, ces.exitGlb, ces.ret = true, r.cells.clone(glb), ret
	} else {
		changed = meetCells(ces.exitGlb, glb)
		if nr := meet(ces.ret, ret); nr != ces.ret {
			ces.ret, changed = nr, true
		}
	}
	if changed {
		r.recomputeCE(ce)
	}
}

// recomputeCE rebuilds a call-site exit's entry state once both its halves
// are present: the caller state with the globals overwritten by the callee
// exit's, caller equalities against globals severed (the callee may have
// changed them), and the return value applied by process. The node is
// re-enqueued even when the merged state is unchanged because the return
// value alone may have lowered.
func (r *sccpRun) recomputeCE(ce *ir.Node) {
	ces := r.ces[ce.ID]
	if ces == nil || !ces.hasCall || !ces.hasExit {
		return
	}
	merged := fill(&r.scratch, ces.callSt)
	for g := 0; g < r.nGlob && g < len(merged) && g < len(ces.exitGlb); g++ {
		merged[g] = ces.exitGlb[g]
	}
	for i := r.nGlob; i < len(merged); i++ {
		if a := merged[i].alias; a != ir.NoVar && r.isGlobalVar(a) {
			merged[i].alias = ir.NoVar
		}
	}
	r.meetIn(ce.ID, merged)
	if int(ce.ID) < len(r.in) && r.in[ce.ID] != nil {
		r.enqueue(ce.ID)
	}
}

// evalRHS folds an assignment right-hand side over the entry state,
// mirroring the interpreter's semantics exactly: negation and arithmetic
// wrap natively, byte conversion always lands in [0,255], and a right-hand
// side that can fault (division or modulo by a constant zero) or that the
// lattice does not model (heap loads, allocations, input) is ⊥. The second
// result is the copy-chain root for RCopy.
func evalRHS(st []cell, sp *space, n *ir.Node) (Value, ir.VarID) {
	rh := n.RHS()
	switch rh.Kind {
	case ir.RConst:
		return constant(rh.Const), ir.NoVar
	case ir.RCopy:
		return valueOf(st, sp, rh.Src), rootOf(st, sp, rh.Src)
	case ir.RNeg:
		return negValue(valueOf(st, sp, rh.Src)), ir.NoVar
	case ir.RByte:
		return byteValue(valueOf(st, sp, rh.Src)), ir.NoVar
	case ir.RBinop:
		a := operandValue(st, sp, rh.A)
		b := operandValue(st, sp, rh.B)
		return binopValue(rh.Op, a, b), ir.NoVar
	}
	return bottom(), ir.NoVar // RLoad, RAlloc, RInput
}

func negValue(v Value) Value {
	switch v.kind {
	case vTop:
		return v
	case vConst:
		return constant(-v.lo) // wraps at MinInt64, matching the interpreter
	case vRange:
		if v.lo == math.MinInt64 {
			return bottom()
		}
		return rangeValue(-v.hi, -v.lo)
	}
	return bottom()
}

// byteValue models byte(): constants mask to their low 8 bits, an interval
// already inside [0,255] is exact, and any other input — including ⊥ —
// still lands in [0,255], the fact that decides sentinel comparisons like
// (c != -1) on byte-fed paths.
func byteValue(v Value) Value {
	switch v.kind {
	case vConst:
		return constant(v.lo & 0xFF)
	case vRange:
		if v.lo >= 0 && v.hi <= 255 {
			return v
		}
	}
	return rangeValue(0, 255)
}

func binopValue(op ir.BinOp, a, b Value) Value {
	if a.kind == vTop || b.kind == vTop {
		return top()
	}
	ac, aok := a.Const()
	bc, bok := b.Const()
	if aok && bok {
		if v, ok := foldBinop(op, ac, bc); ok {
			return constant(v)
		}
		return bottom()
	}
	// Interval arithmetic is deliberately limited to constant shifts:
	// interval+interval sums grow without bound around loops, and the
	// containment-only meet would ride them straight into the step budget.
	switch op {
	case ir.OpAdd:
		if aok {
			return shiftValue(b, ac)
		}
		if bok {
			return shiftValue(a, bc)
		}
	case ir.OpSub:
		if bok {
			if bc == math.MinInt64 {
				return bottom()
			}
			return shiftValue(a, -bc)
		}
		if aok {
			return shiftValue(negValue(b), ac)
		}
	}
	return bottom()
}

// shiftValue translates an interval by a constant, falling to ⊥ when a bound
// would wrap (the interpreter wraps natively, so a wrapped interval would be
// unsound to keep).
func shiftValue(v Value, d int64) Value {
	if v.kind != vRange {
		return bottom()
	}
	nlo, ok1 := addChecked(v.lo, d)
	nhi, ok2 := addChecked(v.hi, d)
	if !ok1 || !ok2 {
		return bottom()
	}
	return rangeValue(nlo, nhi)
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// foldBinop evaluates a binary operation on constants with the
// interpreter's exact semantics; ok is false when the operation faults at
// runtime (division or modulo by zero).
func foldBinop(op ir.BinOp, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return math.MinInt64, true
		}
		return a / b, true
	case ir.OpMod:
		if b == 0 {
			return 0, false
		}
		if a == math.MinInt64 && b == -1 {
			return 0, true
		}
		return a % b, true
	}
	return 0, false
}

// validOp guards pred's operator switches, which panic on out-of-range
// operators (possible only on fuzz-mutated graphs).
func validOp(op pred.Op) bool { return op >= pred.Eq && op <= pred.Ge }
