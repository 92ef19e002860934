package restructure

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// markChangedFull is the whole-program diff markChanged replaced: it
// compares every node of the two programs. Tests use it as the reference
// the touched-node diff must reproduce exactly.
func markChangedFull(dirty []uint64, before, after *ir.Program) []uint64 {
	words := (after.NumNodes() + 63) / 64
	for len(dirty) < words {
		dirty = append(dirty, 0)
	}
	for i := range after.NumNodes() {
		var an *ir.Node
		if i < before.NumNodes() {
			an = before.Node(ir.NodeID(i))
		}
		if nodeChanged(an, after.Node(ir.NodeID(i))) {
			dirty[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dirty
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

func setSettleHook(t *testing.T, h func(w *working, scratch *ir.Program, carried *facts)) {
	t.Helper()
	testHookSettle = h
	t.Cleanup(func() { testHookSettle = nil })
}

// setRegionCrossCheck checks the region passes against the whole-program
// ones they stand in for. Every pruneProgram call on a Local fork also
// prunes an ir.Clone of its input — which is never Local, so it runs the
// whole-program sweep — and the two must encode identically. The returned
// validateAgrees, which settle hooks call on every attempt, requires a
// Local fork's Validate to agree with Validate of its clone. regions counts
// the region passes compared.
func setRegionCrossCheck(t *testing.T) (validateAgrees func(scratch *ir.Program), regions *int) {
	t.Helper()
	n := 0
	testHookPrune = func(p *ir.Program, initiallyDead []ir.NodeID) func() {
		if !p.Local() {
			return func() {}
		}
		whole := ir.Clone(p)
		pruneProgram(whole, initiallyDead)
		return func() {
			n++
			if !bytes.Equal(ir.EncodeProgram(p), ir.EncodeProgram(whole)) {
				t.Errorf("region prune differs from the whole-program prune:\n--- region\n%s\n--- whole\n%s",
					p.Dump(), whole.Dump())
			}
		}
	}
	t.Cleanup(func() { testHookPrune = nil })
	return func(scratch *ir.Program) {
		if !scratch.Local() {
			return
		}
		n++
		got, want := ir.Validate(scratch), ir.Validate(ir.Clone(scratch))
		if (got == nil) != (want == nil) {
			t.Errorf("region Validate = %v, whole-program Validate = %v", got, want)
		}
	}, &n
}

// TestTouchedDirtySetMatchesFullDiff checks, on every adopted attempt over
// the corpus with the fold pass on, that the touched-node diff marks
// exactly the nodes the whole-program diff marks, and that the working
// program was not written by the attempt. On every attempt, adopted or
// not, the region prune and Validate must match their whole-program runs.
func TestTouchedDirtySetMatchesFullDiff(t *testing.T) {
	var before []byte
	adopts := 0
	validateAgrees, regions := setRegionCrossCheck(t)
	setSettleHook(t, func(w *working, scratch *ir.Program, carried *facts) {
		validateAgrees(scratch)
		if carried == nil {
			return
		}
		adopts++
		work := w.prog
		got, want := markChanged(nil, work, scratch), markChangedFull(nil, work, scratch)
		if !slices.Equal(got, want) {
			t.Errorf("touched diff %x differs from full diff %x", got, want)
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
	if *regions == 0 {
		t.Fatal("no attempt ran a region pass; the cross-check checked nothing")
	}
	t.Logf("%d adopted attempts, %d region passes cross-checked", adopts, *regions)
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
			for i := range s.NumNodes() {
				n := s.Node(ir.NodeID(i))
				if n != nil && n.Kind == ir.NAssign && len(n.Succs) == 1 {
					m := s.Mut(n.ID)
					m.Succs[0] = m.ID
					return nil
				}
			}
			return nil
		}},
		{"diff-mismatch", DriverOptions{Verify: true}, FailDiffMismatch, func(s *ir.Program) error {
			for i := range s.NumNodes() {
				n := s.Node(ir.NodeID(i))
				if n != nil && n.Kind == ir.NPrint && n.Val().IsConst {
					v := n.Val()
					v.Const += 1000
					s.Mut(n.ID).SetVal(v)
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
			// Injected from the first attempt on, every attempt forks the
			// unsettled input and runs the whole-program passes. Injected
			// only after one clean adoption, every attempt forks a settled
			// program and runs the region-local ones.
			for _, clean := range []int{0, 1} {
				validateAgrees, regions := setRegionCrossCheck(t)
				var before []byte
				rollbacks, adopts := 0, 0
				setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
					if adopts < clean {
						return nil
					}
					return k.inject(scratch)
				})
				setSettleHook(t, func(w *working, scratch *ir.Program, carried *facts) {
					validateAgrees(scratch)
					if carried != nil {
						adopts++
						before = ir.EncodeProgram(scratch)
						return
					}
					rollbacks++
					if !bytes.Equal(ir.EncodeProgram(w.prog), before) {
						t.Errorf("rolled-back attempt changed the working program")
					}
				})
				p := buildSafety(t)
				before = ir.EncodeProgram(p)
				res := Optimize(p, k.opts)
				if n := res.Stats.Failures[k.kind.String()]; n == 0 || n != rollbacks {
					t.Fatalf("after %d clean adoptions: %v failures = %d, rollbacks observed = %d",
						clean, k.kind, n, rollbacks)
				}
				if adopts != clean {
					t.Fatalf("%d attempts adopted, want %d", adopts, clean)
				}
				if !bytes.Equal(ir.EncodeProgram(res.Program), before) {
					t.Fatal("result differs from the last adopted program after every later attempt rolled back")
				}
				if clean > 0 && *regions == 0 {
					t.Fatal("no injected attempt ran a region pass")
				}
			}
		})
	}
}
