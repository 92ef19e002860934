package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"icbe/internal/pred"
)

// Sum is a 32-byte SHA-256 content hash.
type Sum [sha256.Size]byte

// HashProgram returns the SHA-256 of the program's exact encoding. No
// production code calls it: the service keys results by source text. It
// stays only for the benchmark harness's ir.hash_ms probe.
func HashProgram(p *Program) Sum { return sha256.Sum256(EncodeProgram(p)) }

// The codec's wire format version. Bump whenever the wire structs change
// incompatibly; DecodeProgram rejects other versions so a store can never
// misinterpret entries written by a different build.
const codecVersion = 1

// Decode bounds: a corrupted or hostile payload must not be able to make the
// decoder allocate unbounded arenas before validation gets a chance to run.
const (
	maxDecodeNodes = 1 << 22
	maxDecodeVars  = 1 << 22
	maxDecodeProcs = 1 << 16
	maxDecodeEdges = 1 << 24
)

type wireOperand struct {
	Const   int64 `json:"c,omitempty"`
	Var     VarID `json:"v,omitempty"`
	IsConst bool  `json:"k,omitempty"`
}

type wireRHS struct {
	Kind  RHSKind     `json:"kind"`
	Const int64       `json:"const,omitempty"`
	A     wireOperand `json:"a,omitempty"`
	B     wireOperand `json:"b,omitempty"`
	Src   VarID       `json:"src,omitempty"`
	Op    BinOp       `json:"op,omitempty"`
}

type wireNode struct {
	ID        NodeID      `json:"id"`
	Kind      NodeKind    `json:"kind"`
	Proc      int         `json:"proc"`
	Line      int         `json:"line,omitempty"`
	Synthetic bool        `json:"syn,omitempty"`
	Dst       VarID       `json:"dst,omitempty"`
	RHS       *wireRHS    `json:"rhs,omitempty"`
	CondVar   VarID       `json:"cvar,omitempty"`
	CondOp    pred.Op     `json:"cop,omitempty"`
	CondRHS   wireOperand `json:"crhs,omitempty"`
	AVar      VarID       `json:"avar,omitempty"`
	APredOp   pred.Op     `json:"apop,omitempty"`
	APredC    int64       `json:"apc,omitempty"`
	Ptr       VarID       `json:"ptr,omitempty"`
	Idx       wireOperand `json:"idx,omitempty"`
	Val       wireOperand `json:"val,omitempty"`
	Callee    int         `json:"callee,omitempty"`
	Args      []VarID     `json:"args,omitempty"`
	Succs     []NodeID    `json:"succs,omitempty"`
	Preds     []NodeID    `json:"preds,omitempty"`
}

type wireVar struct {
	ID   VarID   `json:"id"`
	Name string  `json:"name"`
	Kind VarKind `json:"kind"`
	Proc int     `json:"proc"`
	Init int64   `json:"init,omitempty"`
}

type wireProc struct {
	Name    string   `json:"name"`
	Index   int      `json:"index"`
	Formals []VarID  `json:"formals,omitempty"`
	RetVar  VarID    `json:"retvar"`
	Entries []NodeID `json:"entries,omitempty"`
	Exits   []NodeID `json:"exits,omitempty"`
}

type wireProgram struct {
	Version     int         `json:"version"`
	Procs       []*wireProc `json:"procs"`
	Vars        []*wireVar  `json:"vars"`
	NumNodes    int         `json:"num_nodes"`
	Nodes       []*wireNode `json:"nodes"` // live nodes only, ascending ID
	MainProc    int         `json:"main_proc"`
	SourceLines int         `json:"source_lines,omitempty"`
}

// EncodeProgram serializes a program to a deterministic, versioned byte
// stream: identical programs (including arena numbering, names, and source
// lines) encode to identical bytes, so the encoding doubles as an exact
// identity fingerprint for the result cache.
func EncodeProgram(p *Program) []byte {
	wp := &wireProgram{
		Version:     codecVersion,
		MainProc:    p.MainProc,
		SourceLines: p.SourceLines,
		NumNodes:    p.numNodes,
	}
	for _, pr := range p.Procs {
		wp.Procs = append(wp.Procs, &wireProc{
			Name:    pr.Name,
			Index:   pr.Index,
			Formals: pr.Formals,
			RetVar:  pr.RetVar,
			Entries: pr.Entries,
			Exits:   pr.Exits,
		})
	}
	for _, v := range p.Vars {
		wp.Vars = append(wp.Vars, &wireVar{
			ID:   v.ID,
			Name: v.Name,
			Kind: v.Kind,
			Proc: v.Proc,
			Init: v.Init,
		})
	}
	p.LiveNodes(func(n *Node) { wp.Nodes = append(wp.Nodes, wireNodeOf(n)) })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(wp); err != nil {
		// All wire types are plain data; Marshal cannot fail on them.
		panic("ir: encode: " + err.Error())
	}
	return buf.Bytes()
}

// wireNodeOf maps a node to its wire record. The payload block is written
// per kind under the names of what the kind keeps there; a nop writes the
// condition of the branch it was demoted from.
func wireNodeOf(n *Node) *wireNode {
	wn := &wireNode{
		ID:        n.ID,
		Kind:      n.Kind,
		Proc:      n.Proc,
		Line:      int(n.Line),
		Synthetic: n.Synthetic,
		Dst:       n.Dst,
		Succs:     n.Succs,
		Preds:     n.Preds,
	}
	switch n.Kind {
	case NAssign, NCallExit:
		r := n.RHS()
		wn.RHS = &wireRHS{
			Kind:  r.Kind,
			Const: r.Const,
			A:     wireOp(r.A),
			B:     wireOp(r.B),
			Src:   r.Src,
			Op:    r.Op,
		}
		if n.Kind == NCallExit {
			wn.Callee = int(n.Callee)
		}
	case NCall:
		wn.Callee, wn.Args = int(n.Callee), n.Args
	case NBranch, NNop:
		wn.CondVar, wn.CondOp, wn.CondRHS = n.CondVar(), n.CondOp(), wireOp(n.CondRHS())
	case NAssert:
		wn.AVar, wn.APredOp, wn.APredC = n.AVar(), n.APred().Op, n.APred().C
	case NStore:
		wn.Ptr, wn.Idx, wn.Val = n.Ptr(), wireOp(n.Idx()), wireOp(n.Val())
	case NPrint:
		wn.Val = wireOp(n.Val())
	}
	return wn
}

// nodeOfWire is wireNodeOf's inverse. It reports false when the record
// carries what the node cannot hold — payload outside its kind's slots, or
// a line or callee outside int32 — or lacks the rhs every assignment and
// call-site exit is written with, since such a record could not re-encode
// to itself.
func nodeOfWire(wn *wireNode, n *Node) bool {
	*n = Node{
		ID:        wn.ID,
		Kind:      wn.Kind,
		Proc:      wn.Proc,
		Line:      int32(wn.Line),
		Synthetic: wn.Synthetic,
		Dst:       wn.Dst,
		Succs:     wn.Succs,
		Preds:     wn.Preds,
	}
	switch wn.Kind {
	case NAssign, NCallExit:
		if r := wn.RHS; r != nil {
			n.SetRHS(RHS{Kind: r.Kind, Const: r.Const, A: irOp(r.A), B: irOp(r.B), Src: r.Src, Op: r.Op})
		}
		n.Callee = int32(wn.Callee)
	case NCall:
		n.Callee, n.Args = int32(wn.Callee), wn.Args
	case NBranch, NNop:
		n.SetCond(wn.CondVar, wn.CondOp, irOp(wn.CondRHS))
	case NAssert:
		n.SetAssert(wn.AVar, pred.Pred{Op: wn.APredOp, C: wn.APredC})
	case NStore:
		n.SetStore(wn.Ptr, irOp(wn.Idx), irOp(wn.Val))
	case NPrint:
		n.SetVal(irOp(wn.Val))
	}
	back := wireNodeOf(n)
	return back.Line == wn.Line && back.Callee == wn.Callee &&
		(back.RHS == nil) == (wn.RHS == nil) && (wn.RHS == nil || *back.RHS == *wn.RHS) &&
		back.CondVar == wn.CondVar && back.CondOp == wn.CondOp && back.CondRHS == wn.CondRHS &&
		back.AVar == wn.AVar && back.APredOp == wn.APredOp && back.APredC == wn.APredC &&
		back.Ptr == wn.Ptr && back.Idx == wn.Idx && back.Val == wn.Val &&
		(back.Args == nil) == (wn.Args == nil)
}

func wireOp(o Operand) wireOperand {
	return wireOperand{Const: o.Const, Var: o.Var, IsConst: o.IsConst}
}

func irOp(o wireOperand) Operand {
	return Operand{Const: o.Const, Var: o.Var, IsConst: o.IsConst}
}

// DecodeProgram parses a program previously written by EncodeProgram. It
// never panics on malformed input: structural damage surfaces as an error
// here or, for semantic damage the codec cannot see, in the Validate /
// invariant pass the store runs on the decoded result (verify-on-read).
func DecodeProgram(data []byte) (*Program, error) {
	var wp wireProgram
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wp); err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	if wp.Version != codecVersion {
		return nil, fmt.Errorf("ir: decode: wire version %d, want %d", wp.Version, codecVersion)
	}
	if wp.NumNodes < 0 || wp.NumNodes > maxDecodeNodes ||
		len(wp.Nodes) > wp.NumNodes ||
		len(wp.Vars) > maxDecodeVars ||
		len(wp.Procs) > maxDecodeProcs {
		return nil, fmt.Errorf("ir: decode: arena bounds out of range")
	}
	edges := 0
	for _, wn := range wp.Nodes {
		if wn == nil {
			return nil, fmt.Errorf("ir: decode: null node record")
		}
		edges += len(wn.Succs) + len(wn.Preds)
		if edges > maxDecodeEdges {
			return nil, fmt.Errorf("ir: decode: edge count out of range")
		}
	}

	p := &Program{
		MainProc:    wp.MainProc,
		SourceLines: wp.SourceLines,
	}
	p.Vars = make([]*Var, len(wp.Vars))
	vblock := make([]Var, len(wp.Vars))
	for i, wv := range wp.Vars {
		if wv == nil {
			return nil, fmt.Errorf("ir: decode: null var record")
		}
		if wv.ID != VarID(i) {
			return nil, fmt.Errorf("ir: decode: var %d has id %d", i, wv.ID)
		}
		vblock[i] = Var{ID: wv.ID, Name: wv.Name, Kind: wv.Kind, Proc: wv.Proc, Init: wv.Init}
		p.Vars[i] = &vblock[i]
	}
	p.Procs = make([]*Proc, len(wp.Procs))
	for i, wpr := range wp.Procs {
		if wpr == nil {
			return nil, fmt.Errorf("ir: decode: null proc record")
		}
		p.Procs[i] = &Proc{
			Name:    wpr.Name,
			Index:   wpr.Index,
			Formals: wpr.Formals,
			RetVar:  wpr.RetVar,
			Entries: wpr.Entries,
			Exits:   wpr.Exits,
		}
	}
	p.extend(wp.NumNodes)
	nblock := make([]Node, len(wp.Nodes))
	prev := NodeID(-1)
	for i, wn := range wp.Nodes {
		if wn.ID <= prev || int(wn.ID) >= wp.NumNodes {
			return nil, fmt.Errorf("ir: decode: node id %d out of order or range", wn.ID)
		}
		prev = wn.ID
		n := &nblock[i]
		if !nodeOfWire(wn, n) {
			return nil, fmt.Errorf("ir: decode: node %d (%s) payload does not fit its kind", wn.ID, wn.Kind)
		}
		p.store(wn.ID, n, nil)
	}
	return p, nil
}
