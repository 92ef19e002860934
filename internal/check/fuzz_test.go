package check

import (
	"bytes"
	"slices"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/pred"
	"icbe/internal/randprog"
)

// fuzzCfg keeps generated programs small enough for tight fuzz iterations
// while still exercising calls, branches, and globals.
var fuzzCfg = randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2}

// fuzzRNG is a splitmix64 stream, so mutations are a pure function of the
// fuzz input and failures replay deterministically.
type fuzzRNG struct{ s uint64 }

func (r *fuzzRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *fuzzRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// liveNodeIDs returns the non-nil node ids, the mutation candidates.
func liveNodeIDs(p *ir.Program) []ir.NodeID {
	var ids []ir.NodeID
	for i := range p.NumNodes() {
		if p.Node(ir.NodeID(i)) != nil {
			ids = append(ids, ir.NodeID(i))
		}
	}
	return ids
}

func removePredOnce(ids []ir.NodeID, x ir.NodeID) []ir.NodeID {
	for i, id := range ids {
		if id == x {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// freeNode frees node id's slot but leaves every edge that references it:
// DeleteNode drops those edges, so the neighbours' lists are put back.
// The mutator runs on built programs, whose neighbours DeleteNode edits in
// place, and its removeOne never writes the list it is given. An earlier
// mutation may have left the node a dangling neighbour, which DeleteNode
// cannot edit, so the freed node's own lists drop those first.
func freeNode(p *ir.Program, id ir.NodeID) {
	type lists struct {
		n            *ir.Node
		succs, preds []ir.NodeID
	}
	var saved []lists
	n := p.Node(id)
	for _, m := range slices.Concat(n.Succs, n.Preds) {
		if mn := p.Node(m); mn != nil {
			saved = append(saved, lists{mn, mn.Succs, mn.Preds})
		}
	}
	dangling := func(m ir.NodeID) bool { return p.Node(m) == nil }
	n.Succs = slices.DeleteFunc(slices.Clone(n.Succs), dangling)
	n.Preds = slices.DeleteFunc(slices.Clone(n.Preds), dangling)
	p.DeleteNode(id)
	for _, l := range saved {
		l.n.Succs, l.n.Preds = l.succs, l.preds
	}
}

// mutate applies one random graph corruption: the kinds of damage a buggy
// restructuring could inflict (dangling, asymmetric and extra edges, freed
// nodes, out-of-range variable/procedure references, invalid kinds and
// operators).
func mutate(p *ir.Program, r *fuzzRNG) {
	ids := liveNodeIDs(p)
	if len(ids) == 0 {
		return
	}
	n := p.Node(ids[r.intn(len(ids))])
	switch r.intn(10) {
	case 0: // free a node while edges still reference it
		freeNode(p, n.ID)
	case 1: // drop the backward direction of an edge (asymmetry)
		if len(n.Succs) > 0 {
			s := n.Succs[r.intn(len(n.Succs))]
			if sn := p.Node(s); sn != nil {
				sn.Preds = removePredOnce(sn.Preds, n.ID)
			}
		}
	case 2: // rewrite a successor slot to an arbitrary id
		if len(n.Succs) > 0 {
			n.Succs[r.intn(len(n.Succs))] = ir.NodeID(r.intn(p.NumNodes()+6) - 3)
		}
	case 3: // retype the node, possibly to an invalid kind
		n.Kind = ir.NodeKind(r.intn(16))
	case 4: // out-of-range variable references
		n.Dst = ir.VarID(len(p.Vars) + r.intn(4))
		// CondVar, AVar and Ptr share one slot: corrupt it one way or
		// the other.
		if r.intn(2) == 0 {
			n.SetCond(ir.VarID(-1-r.intn(2)), n.CondOp(), n.CondRHS())
		} else {
			n.SetAssert(ir.VarID(len(p.Vars)+1), n.APred())
		}
	case 5: // out-of-range procedure references
		n.Callee = int32(len(p.Procs) + r.intn(3))
		n.Proc = -1 - r.intn(2)
	case 6: // invalid predicate operators
		n.SetCond(n.CondVar(), pred.Op(64+r.intn(8)), n.CondRHS())
		n.SetAssert(n.AVar(), pred.Pred{Op: pred.Op(64 + r.intn(8)), C: n.APred().C})
	case 7: // out-of-range argument list
		n.Args = append(n.Args, ir.VarID(len(p.Vars)+r.intn(3)))
	case 8: // an extra out-edge: a third branch arm, a second entry
		// successor, a cross-procedure edge
		to := p.Node(ids[r.intn(len(ids))])
		n.Succs = append(n.Succs, to.ID)
		to.Preds = append(to.Preds, n.ID)
	default: // invalid main procedure
		p.MainProc = len(p.Procs) + r.intn(2)
	}
}

// FuzzCheck feeds randomly generated programs — intact and with random graph
// corruptions — through the whole static check layer and requires it to stay
// panic-free: ir.Validate, the lint passes, the SCCP oracle, its edge
// replay (EdgeFacts on every branch), and the cross-check must diagnose
// arbitrary damage, never crash on it (the driver runs them on every
// candidate restructuring). On intact programs it also requires a clean
// bill of health: no validation error, no invariant findings, no must-fail
// asserts, and every live edge state within its branch's entry state.
// Every graph is also analyzed in a workspace whose memory last served a
// different graph, and the facts and findings must equal the fresh ones;
// edge facts replayed in one reused buffer must equal fresh ones; and
// every graph must encode, decode and encode again to the same bytes.
func FuzzCheck(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 7, 11, 42, 99, 1234, 0xdeadbeef} {
		f.Add(seed, seed*3)
		f.Add(seed, uint64(0))
	}
	f.Fuzz(func(t *testing.T, seed, mutSeed uint64) {
		src := randprog.Generate(seed, fuzzCfg)
		p, err := ir.Build(src)
		if err != nil {
			t.Fatalf("generated program rejected: %v\n%s", err, src)
		}

		r := &fuzzRNG{s: mutSeed}
		nmut := int(mutSeed % 4)
		for i := 0; i < nmut; i++ {
			mutate(p, r)
		}

		// The codec must carry any in-memory graph, damaged or not: only
		// the payload its kind holds is written, and read back the same.
		enc := ir.EncodeProgram(p)
		if dec, err := ir.DecodeProgram(enc); err != nil {
			t.Fatalf("decode of an encoding: %v\n%s", err, src)
		} else if !bytes.Equal(ir.EncodeProgram(dec), enc) {
			t.Fatalf("encode → decode → encode is not byte-identical\n%s", src)
		}

		verr := ir.Validate(p)
		rep := AnalyzeInvariants(p)
		s := RunSCCP(p)

		other, err := ir.Build(randprog.Generate(mutSeed, fuzzCfg))
		if err != nil {
			t.Fatalf("generated program rejected: %v", err)
		}
		ws := new(Workspace)
		ws.AnalyzeInvariants(other).Release()
		if err := sameFacts(p, ws.AnalyzeInvariants(p), rep); err != nil {
			t.Fatalf("recycled workspace: %v\n%s", err, src)
		}
		s.MustFailAsserts()
		RecallCount(p, s)
		var rb EdgeReplay
		for _, id := range liveNodeIDs(p) {
			if p.Node(id).Kind != ir.NBranch {
				continue
			}
			if reused, fresh := s.EdgeFacts(nil, id, &rb), s.EdgeFacts(nil, id, nil); !slices.Equal(reused, fresh) {
				t.Fatalf("branch %d: edge facts %v in a reused replay buffer, %v in a fresh one\n%s", id, reused, fresh, src)
			}
			for _, ans := range []analysis.AnswerSet{analysis.AnsTrue, analysis.AnsFalse} {
				if _, cf := CrossCheck(p, s, id, ans); cf != nil {
					_ = cf.Error()
				}
			}
		}

		if nmut == 0 {
			if verr != nil {
				t.Fatalf("intact program failed validation: %v\n%s", verr, src)
			}
			if len(rep.Findings) != 0 {
				t.Fatalf("intact program has invariant findings: %v\n%s", rep.Findings, src)
			}
			if mf := s.MustFailAsserts(); len(mf) != 0 {
				t.Fatalf("intact program has must-fail asserts %v\n%s", mf, src)
			}
			if _, err := edgeContainment(p, s); err != nil {
				t.Fatalf("intact program: %v\n%s", err, src)
			}
		}
	})
}
