package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
)

// Sum is a 32-byte SHA-256 content hash.
type Sum [32]byte

// Hex returns the lowercase hex encoding of the sum.
func (s Sum) Hex() string { return hex.EncodeToString(s[:]) }

// ProgramHash is the canonical, order-independent content hash of a whole
// program.
type ProgramHash struct {
	// Sum identifies the program content: main procedure closure, the
	// multiset of all procedure closures, and the global variable
	// signatures. It is independent of procedure/local names, source lines,
	// arena numbering, and declaration order.
	Sum Sum
}

// hasher wraps a SHA-256 stream with primitive writers. Every write is
// length- or tag-delimited so distinct field sequences cannot collide by
// concatenation.
type hasher struct {
	h   hash.Hash
	buf [9]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (w *hasher) u8(b byte) {
	w.buf[0] = b
	w.h.Write(w.buf[:1])
}

func (w *hasher) i32(v int32) {
	u := uint32(v)
	w.buf[0], w.buf[1], w.buf[2], w.buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	w.h.Write(w.buf[:4])
}

func (w *hasher) i64(v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		w.buf[i] = byte(u >> (8 * i))
	}
	w.h.Write(w.buf[:8])
}

func (w *hasher) str(s string) {
	w.i32(int32(len(s)))
	w.h.Write([]byte(s))
}

func (w *hasher) sum() Sum {
	var s Sum
	w.h.Sum(s[:0])
	return s
}

// HashProgram computes the canonical content hash of a program. The program
// must be structurally sound (ir.Validate-clean); deleted nodes are skipped.
//
// The hash is computed in canonical coordinates: nodes are numbered by a
// deterministic depth-first traversal from each procedure's entries
// (successor order preserved — branch arms are significant), variables by
// formals, return variable, then first reference in canonical node order.
// Local hashes refer to callees by call-appearance slot, not by name, so
// renaming a procedure or reordering declarations does not change any hash;
// Closure hashes are the fixpoint of folding callee closures into the local
// hash, which distinguishes procedures by their entire call tree while
// remaining well-defined for recursion.
func HashProgram(p *Program) ProgramHash {
	// Global table: sorted by name (ties broken by ID for determinism in the
	// face of duplicate names, which sema rejects anyway).
	var globals []*Var
	for _, v := range p.Vars {
		if v != nil && v.IsGlobal() {
			globals = append(globals, v)
		}
	}
	sort.Slice(globals, func(i, j int) bool {
		a, b := globals[i], globals[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.ID < b.ID
	})

	// Bucket live nodes by owning procedure once (ProcNodes per proc is
	// quadratic in arena size).
	procNodes := make([][]*Node, len(p.Procs))
	for _, n := range p.Nodes {
		if n != nil && n.Proc >= 0 && n.Proc < len(procNodes) {
			procNodes[n.Proc] = append(procNodes[n.Proc], n)
		}
	}

	n := len(p.Procs)
	local := make([]Sum, n)
	callees := make([][]int, n)
	for i, pr := range p.Procs {
		local[i], callees[i] = hashProc(p, pr, procNodes[i])
	}
	cl := local

	// Closure fixpoint: iterate until the equality partition over closure
	// sums stabilizes (color refinement converges in ≤ numProcs rounds; the
	// cap is a safety net).
	maxIter := n + 2
	if maxIter > 64 {
		maxIter = 64
	}
	for it := 0; it < maxIter; it++ {
		next := make([]Sum, n)
		for i := range next {
			w := newHasher()
			w.str("icbe-closure-v1")
			w.h.Write(local[i][:])
			for _, callee := range callees[i] {
				if callee >= 0 && callee < n {
					w.h.Write(cl[callee][:])
				} else {
					w.u8('?')
					w.i32(int32(callee))
				}
			}
			next[i] = w.sum()
		}
		if samePartition(cl, next) {
			cl = next
			break
		}
		cl = next
	}

	// Program sum: main closure, sorted closure multiset, global signatures.
	w := newHasher()
	w.str("icbe-program-v1")
	w.i32(int32(n))
	if p.MainProc >= 0 && p.MainProc < n {
		w.h.Write(cl[p.MainProc][:])
	}
	sorted := make([]Sum, len(cl))
	copy(sorted, cl)
	sort.Slice(sorted, func(i, j int) bool {
		for k := range sorted[i] {
			if sorted[i][k] != sorted[j][k] {
				return sorted[i][k] < sorted[j][k]
			}
		}
		return false
	})
	for _, s := range sorted {
		w.h.Write(s[:])
	}
	w.i32(int32(len(globals)))
	for _, v := range globals {
		w.str(v.Name)
		w.i64(v.Init)
	}
	return ProgramHash{Sum: w.sum()}
}

// samePartition reports whether two sum slices induce the same equality
// partition over indices (i ~ j iff a[i]==a[j] iff b[i]==b[j]).
func samePartition(a, b []Sum) bool {
	rep := make(map[Sum]Sum, len(a))
	seen := make(map[Sum]bool, len(b))
	for i := range a {
		if r, ok := rep[a[i]]; ok {
			if r != b[i] {
				return false
			}
		} else {
			if seen[b[i]] {
				return false
			}
			rep[a[i]] = b[i]
			seen[b[i]] = true
		}
	}
	return true
}

// procWalk holds one procedure's canonical coordinates while its local hash
// is written: node and variable indices, and the call-appearance slot of
// each callee.
type procWalk struct {
	p       *Program
	pr      *Proc
	nodeIdx map[NodeID]int32
	varIdx  map[VarID]int32
	slot    map[int]int
}

// hashProc returns a procedure's Local hash — over its own nodes, edges, and
// operands, independent of names, source lines, arena IDs, and callee
// identity — and its callee proc indices in slot order, which the closure
// fixpoint folds in.
func hashProc(p *Program, pr *Proc, nodes []*Node) (Sum, []int) {
	c := &procWalk{
		p:       p,
		pr:      pr,
		nodeIdx: make(map[NodeID]int32, len(nodes)),
		varIdx:  make(map[VarID]int32),
		slot:    make(map[int]int),
	}

	// Canonical node order: DFS from entries in declared order, successor
	// order preserved, then any remaining proc nodes in ID order so every
	// live node gets a coordinate.
	order := make([]NodeID, 0, len(nodes))
	addNode := func(id NodeID) {
		c.nodeIdx[id] = int32(len(order))
		order = append(order, id)
	}
	var stack []NodeID
	for i := len(pr.Entries) - 1; i >= 0; i-- {
		stack = append(stack, pr.Entries[i])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := c.nodeIdx[id]; seen {
			continue
		}
		n := p.Node(id)
		if n == nil || n.Proc != pr.Index {
			continue
		}
		addNode(id)
		for i := len(n.Succs) - 1; i >= 0; i-- {
			s := n.Succs[i]
			if _, seen := c.nodeIdx[s]; !seen {
				if sn := p.Node(s); sn != nil && sn.Proc == pr.Index {
					stack = append(stack, s)
				}
			}
		}
	}
	var rest []NodeID
	for _, n := range nodes {
		if _, seen := c.nodeIdx[n.ID]; !seen {
			rest = append(rest, n.ID)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, id := range rest {
		addNode(id)
	}

	// Canonical var order: formals, return variable, then first reference in
	// canonical node order. Only referenced variables are ever hashed, so
	// unreferenced proc-owned ones need no index.
	addVar := func(id VarID) {
		if id == NoVar {
			return
		}
		v := p.Var(id)
		if v.IsGlobal() || v.Proc != pr.Index {
			return
		}
		if _, ok := c.varIdx[id]; !ok {
			c.varIdx[id] = int32(len(c.varIdx))
		}
	}
	for _, f := range pr.Formals {
		addVar(f)
	}
	addVar(pr.RetVar)
	var refs []VarID
	for _, id := range order {
		refs = appendNodeVarRefs(p.Node(id), refs[:0])
		for _, v := range refs {
			addVar(v)
		}
	}

	// Callee slots: first call appearance in canonical node order.
	var callees []int
	for _, id := range order {
		n := p.Node(id)
		if n.Kind == NCall || n.Kind == NCallExit {
			if _, ok := c.slot[n.Callee]; !ok {
				c.slot[n.Callee] = len(callees)
				callees = append(callees, n.Callee)
			}
		}
	}

	// Local hash.
	w := newHasher()
	w.str("icbe-proc-v1")
	w.i32(int32(len(pr.Formals)))
	c.varRef(w, pr.RetVar)
	w.i32(int32(len(pr.Entries)))
	for _, e := range pr.Entries {
		w.i32(c.nodeIdx[e])
	}
	w.i32(int32(len(pr.Exits)))
	for _, e := range pr.Exits {
		w.i32(c.nodeIdx[e])
	}
	w.i32(int32(len(order)))
	for _, id := range order {
		c.node(w, p.Node(id))
	}
	return w.sum(), callees
}

// appendNodeVarRefs appends the variables a node references, in a fixed
// per-kind field order, including NoVar placeholders' absence (NoVar and
// constant operands contribute nothing).
func appendNodeVarRefs(n *Node, dst []VarID) []VarID {
	add := func(v VarID) {
		if v != NoVar {
			dst = append(dst, v)
		}
	}
	addOp := func(o Operand) {
		if !o.IsConst {
			add(o.Var)
		}
	}
	switch n.Kind {
	case NAssign:
		add(n.Dst)
		switch n.RHS.Kind {
		case RCopy, RNeg, RByte:
			add(n.RHS.Src)
		case RBinop:
			addOp(n.RHS.A)
			addOp(n.RHS.B)
		case RLoad:
			add(n.RHS.Src)
			addOp(n.RHS.A)
		case RAlloc:
			addOp(n.RHS.A)
		}
	case NCallExit:
		add(n.Dst)
	case NCall:
		for _, a := range n.Args {
			add(a)
		}
	case NBranch:
		add(n.CondVar)
		addOp(n.CondRHS)
	case NAssert:
		add(n.AVar)
	case NStore:
		add(n.Ptr)
		addOp(n.Idx)
		addOp(n.Val)
	case NPrint:
		addOp(n.Val)
	}
	return dst
}

// varRef hashes a variable reference in canonical coordinates: locals
// by canonical index, globals by (name, init) signature — global identity is
// part of program meaning, local names are not.
func (c *procWalk) varRef(w *hasher, id VarID) {
	if id == NoVar {
		w.u8(0xFF)
		return
	}
	v := c.p.Var(id)
	if v.IsGlobal() {
		w.u8('g')
		w.str(v.Name)
		w.i64(v.Init)
		return
	}
	if i, ok := c.varIdx[id]; ok {
		w.u8('l')
		w.i32(i)
		return
	}
	// Foreign-proc reference: structurally invalid, but hash it
	// deterministically rather than panicking on a corrupted graph.
	w.u8('?')
	w.i32(int32(id))
}

func (c *procWalk) operand(w *hasher, o Operand) {
	if o.IsConst {
		w.u8('c')
		w.i64(o.Const)
		return
	}
	c.varRef(w, o.Var)
}

func (c *procWalk) node(w *hasher, n *Node) {
	p, pr := c.p, c.pr
	w.u8(uint8(n.Kind))
	if n.Synthetic {
		w.u8(1)
	} else {
		w.u8(0)
	}
	switch n.Kind {
	case NAssign:
		c.varRef(w, n.Dst)
		w.u8(uint8(n.RHS.Kind))
		switch n.RHS.Kind {
		case RConst:
			w.i64(n.RHS.Const)
		case RCopy, RNeg, RByte:
			c.varRef(w, n.RHS.Src)
		case RBinop:
			w.u8(uint8(n.RHS.Op))
			c.operand(w, n.RHS.A)
			c.operand(w, n.RHS.B)
		case RLoad:
			c.varRef(w, n.RHS.Src)
			c.operand(w, n.RHS.A)
		case RAlloc:
			c.operand(w, n.RHS.A)
		}
	case NCallExit:
		c.varRef(w, n.Dst)
		w.i32(int32(c.slot[n.Callee]))
		// Which exits of the callee feed this call-site exit (significant
		// after exit splitting). Positions are sorted: pred order is not.
		var exits []int32
		for _, m := range n.Preds {
			mn := p.Node(m)
			if mn == nil || mn.Kind != NExit || mn.Proc == pr.Index {
				continue
			}
			if mn.Proc >= 0 && mn.Proc < len(p.Procs) {
				for i, e := range p.Procs[mn.Proc].Exits {
					if e == m {
						exits = append(exits, int32(i))
					}
				}
			}
		}
		sort.Slice(exits, func(i, j int) bool { return exits[i] < exits[j] })
		w.i32(int32(len(exits)))
		for _, e := range exits {
			w.i32(e)
		}
	case NCall:
		w.i32(int32(c.slot[n.Callee]))
		w.i32(int32(len(n.Args)))
		for _, a := range n.Args {
			c.varRef(w, a)
		}
	case NBranch:
		c.varRef(w, n.CondVar)
		w.u8(uint8(n.CondOp))
		c.operand(w, n.CondRHS)
	case NAssert:
		c.varRef(w, n.AVar)
		w.u8(uint8(n.APred.Op))
		w.i64(n.APred.C)
	case NStore:
		c.varRef(w, n.Ptr)
		c.operand(w, n.Idx)
		c.operand(w, n.Val)
	case NPrint:
		c.operand(w, n.Val)
	}
	// Successors: same-proc edges by canonical index in order (branch arm
	// order is significant); the edge into a callee entry by callee slot and
	// entry position. Cross-proc exit→call-site-exit successors are the
	// caller's structure, not this procedure's, and are excluded so a
	// procedure's hash does not depend on who calls it.
	w.u8('S')
	for _, s := range n.Succs {
		sn := p.Node(s)
		if sn == nil {
			continue
		}
		if sn.Proc == pr.Index {
			w.u8('s')
			w.i32(c.nodeIdx[s])
		} else if sn.Kind == NEntry && sn.Proc >= 0 && sn.Proc < len(p.Procs) {
			w.u8('e')
			w.i32(int32(c.slot[sn.Proc]))
			pos := int32(-1)
			for i, e := range p.Procs[sn.Proc].Entries {
				if e == s {
					pos = int32(i)
					break
				}
			}
			w.i32(pos)
		}
	}
	w.u8('E')
}
