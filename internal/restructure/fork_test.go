package restructure

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// markChangedFull is the whole-program diff markChanged replaced: it
// compares every node of the two programs. Tests use it as the reference
// the touched-node diff must reproduce exactly.
func markChangedFull(dirty map[ir.NodeID]bool, dirtyBits []uint64, before, after *ir.Program) []uint64 {
	words := (len(after.Nodes) + 63) / 64
	for len(dirtyBits) < words {
		dirtyBits = append(dirtyBits, 0)
	}
	for i, bn := range after.Nodes {
		var an *ir.Node
		if i < len(before.Nodes) {
			an = before.Nodes[i]
		}
		if nodeChanged(an, bn) {
			dirty[ir.NodeID(i)] = true
			dirtyBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dirtyBits
}

// forkCorpus is every shape the driver's goldens cover: the paper
// workloads, generated programs, deep recursion and reduced Scale programs.
func forkCorpus() map[string]string {
	out := make(map[string]string)
	for _, w := range progs.All() {
		out[w.Name] = w.Source
	}
	for _, seed := range []uint64{0, 1, 2, 3, 7, 11, 42, 99} {
		out[fmt.Sprintf("randprog-%d", seed)] = randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2})
	}
	for _, seed := range []uint64{3, 9} {
		out[fmt.Sprintf("recursion-%d", seed)] = randprog.Recursion(seed, randprog.RecConfig{})
	}
	scale := randprog.ScaleConfig{Globals: 3, Leaves: 12, LeafStmts: 30, Hubs: 5, Calls: 5, Conds: 3, ChainLeaves: 2, ChainLen: 2}
	for _, seed := range []uint64{1, 7} {
		out[fmt.Sprintf("scale-%d", seed)] = randprog.Scale(seed, scale)
	}
	return out
}

func setSettleHook(t *testing.T, h func(work, scratch *ir.Program, adopted bool)) {
	t.Helper()
	testHookSettle = h
	t.Cleanup(func() { testHookSettle = nil })
}

// TestTouchedDirtySetMatchesFullDiff checks, on every adopted attempt over
// the corpus with the fold pass on, that the touched-node diff marks
// exactly the nodes the whole-program diff marks, and that the working
// program was not written by the attempt.
func TestTouchedDirtySetMatchesFullDiff(t *testing.T) {
	var before []byte
	adopts := 0
	setSettleHook(t, func(work, scratch *ir.Program, adopted bool) {
		if !adopted {
			return
		}
		adopts++
		got, want := map[ir.NodeID]bool{}, map[ir.NodeID]bool{}
		gotBits := markChanged(got, nil, work, scratch)
		wantBits := markChangedFull(want, nil, work, scratch)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotBits, wantBits) {
			t.Errorf("touched diff %v differs from full diff %v", got, want)
		}
		// Every attempt forks the program adopted by the one before, so
		// work must still encode as that program did when it was adopted.
		if before != nil && !bytes.Equal(ir.EncodeProgram(work), before) {
			t.Errorf("an attempt wrote the working program")
		}
		before = ir.EncodeProgram(scratch)
	})
	for name, src := range forkCorpus() {
		p, err := ir.Build(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before = nil
		res := Optimize(p, DriverOptions{Analysis: analysis.DefaultOptions(), Fold: true, Check: true})
		if err := ir.Validate(res.Program); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if adopts == 0 {
		t.Fatal("no attempt was adopted; the test checked nothing")
	}
}

// TestRollbackLeavesWorkUntouched injects each failure kind an apply can
// hit and checks every rolled-back attempt left the working program's
// encoding exactly as it was before the attempt.
func TestRollbackLeavesWorkUntouched(t *testing.T) {
	kinds := []struct {
		name   string
		opts   DriverOptions
		kind   FailureKind
		inject func(scratch *ir.Program) error
	}{
		{"validate", DriverOptions{}, FailValidate, func(*ir.Program) error { return errors.New("injected") }},
		{"panic", DriverOptions{}, FailPanic, func(*ir.Program) error { panic("injected") }},
		{"structure", DriverOptions{}, FailValidate, func(s *ir.Program) error {
			for _, n := range s.Nodes {
				if n != nil && n.Kind == ir.NAssign && len(n.Succs) == 1 {
					m := s.Mut(n.ID)
					m.Succs[0] = m.ID
					return nil
				}
			}
			return nil
		}},
		{"diff-mismatch", DriverOptions{Verify: true}, FailDiffMismatch, func(s *ir.Program) error {
			for _, n := range s.Nodes {
				if n != nil && n.Kind == ir.NPrint && n.Val.IsConst {
					s.Mut(n.ID).Val.Const += 1000
					return nil
				}
			}
			return nil
		}},
		{"check", DriverOptions{Check: true}, FailCheck, func(s *ir.Program) error {
			pr := s.Procs[s.MainProc]
			orphan := s.NewNode(ir.NNop, pr.Index)
			s.AddEdge(orphan.ID, pr.Exits[0])
			return nil
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var before []byte
			rollbacks := 0
			setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error { return k.inject(scratch) })
			setSettleHook(t, func(work, scratch *ir.Program, adopted bool) {
				if adopted {
					return
				}
				rollbacks++
				if !bytes.Equal(ir.EncodeProgram(work), before) {
					t.Errorf("rolled-back attempt changed the working program")
				}
			})
			p := buildSafety(t)
			before = ir.EncodeProgram(p)
			res := Optimize(p, k.opts)
			if n := res.Stats.Failures[k.kind]; n == 0 || n != rollbacks {
				t.Fatalf("%v failures = %d, rollbacks observed = %d", k.kind, n, rollbacks)
			}
			if !bytes.Equal(ir.EncodeProgram(res.Program), before) {
				t.Fatal("result differs from the input after every attempt rolled back")
			}
		})
	}
}
