package check

import (
	"fmt"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/pred"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// containmentCorpus is the program set the edge-containment tests run on:
// the paper programs and randprog's three generators.
func containmentCorpus() (names, srcs []string) {
	add := func(name, src string) {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	for _, w := range progs.All() {
		add(w.Name, w.Source)
	}
	for seed := uint64(1); seed <= 300; seed++ {
		add(fmt.Sprintf("generate-%d", seed), randprog.Generate(seed, fuzzCfg))
		add(fmt.Sprintf("recursion-%d", seed), randprog.Recursion(seed, randprog.RecConfig{}))
	}
	scale := randprog.ScaleConfig{Globals: 3, Leaves: 12, LeafStmts: 30, Hubs: 5, Calls: 5, Conds: 3,
		ChainLeaves: 2, ChainLen: 2}
	for seed := uint64(1); seed <= 4; seed++ {
		add(fmt.Sprintf("scale-%d", seed), randprog.Scale(seed, scale))
	}
	return names, srcs
}

// edgeContainment checks the edge replay against the run it came from. The
// entry state of a branch is the meet of the states its executable in-edges
// carried, so every live edge's replayed state must lie within it cell by
// cell — meet(entry, edge) == entry, and the entry's alias is either
// dropped or the edge's — and no live edge may decide the opposite of
// BranchOutcome. It returns the number of live edges checked.
func edgeContainment(p *ir.Program, s *SCCP) (live int, err error) {
	var buf []cell
	p.LiveNodes(func(bn *ir.Node) {
		if err != nil || bn.Kind != ir.NBranch {
			return
		}
		entry, whole, bsp := s.stateOf(bn.ID), s.BranchOutcome(bn.ID), s.spaceOf(bn.Proc)
		for _, e := range s.EdgeFacts(nil, bn.ID, nil) {
			if !e.Live {
				continue
			}
			live++
			where := fmt.Sprintf("branch %d, edge from %d slot %d", bn.ID, e.From, e.Slot)
			pn := p.Node(e.From)
			st := s.edgeState(pn, e.Slot, &buf)
			if st != nil && s.spaceOf(pn.Proc) != bsp {
				st = s.convert(st, bsp)
			}
			if st == nil || entry == nil {
				err = fmt.Errorf("%s: live edge without an edge state (%v) or entry state (%v)", where, st != nil, entry != nil)
				return
			}
			for i, c := range entry {
				ec := mkCell(bottom(), ir.NoVar)
				if i < len(st) {
					ec = st[i]
				}
				if meet(c.value(), ec.value()) != c.value() || (c.alias != ir.NoVar && c.alias != ec.alias) {
					err = fmt.Errorf("%s: slot %d carries %s (alias v%d), not within the entry's %s (alias v%d)",
						where, i, ec.value(), int(ec.alias), c.value(), int(c.alias))
					return
				}
			}
			if whole != pred.Unknown && e.Outcome != pred.Unknown && e.Outcome != whole {
				err = fmt.Errorf("%s: edge decides %v, the entry state %v", where, e.Outcome, whole)
				return
			}
		}
	})
	return live, err
}

// TestEdgeFactsWithinEntryState runs the containment check on compiled
// programs; edgefacts_ext_test.go runs it on the same programs optimized.
func TestEdgeFactsWithinEntryState(t *testing.T) {
	names, srcs := containmentCorpus()
	live := 0
	for i, src := range srcs {
		p, err := ir.Build(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		n, err := edgeContainment(p, RunSCCP(p))
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
		live += n
	}
	t.Logf("%d programs, %d live edges", len(srcs), live)
	if live == 0 {
		t.Fatalf("no live edge checked")
	}
}

// edgeFrom returns the fact for the in-edge of b leaving from at slot.
func edgeFrom(t *testing.T, s *SCCP, b, from ir.NodeID, slot int) EdgeFact {
	t.Helper()
	for _, e := range s.EdgeFacts(nil, b, nil) {
		if e.From == from && e.Slot == slot {
			return e
		}
	}
	t.Fatalf("branch %d has no in-edge from %d slot %d: %v", b, from, slot, s.EdgeFacts(nil, b, nil))
	return EdgeFact{}
}

// TestEdgeFactsBranchArms pins the edge replay's branch-arm transfer: the
// edge leaving an outer branch's arm carries that arm's predicate (negated
// on the else arm), so it decides an inner branch on the same variable.
// Lowering puts an assertion on every arm; the test wires the arm straight
// to the inner branch, the shape restructuring leaves behind.
func TestEdgeFactsBranchArms(t *testing.T) {
	cases := []struct {
		name, src string
		inner     pred.Pred
		slot      int
		want      pred.Outcome
	}{
		{"then", `
			func main() {
				var x = input();
				if (x < 5) {
					if (x < 10) { print(1); } else { print(2); }
				}
			}`, pred.Pred{Op: pred.Lt, C: 10}, 0, pred.True},
		{"else", `
			func main() {
				var x = input();
				if (x < 5) { print(0); } else {
					if (x < 3) { print(1); } else { print(2); }
				}
			}`, pred.Pred{Op: pred.Lt, C: 3}, 1, pred.False},
		// The inner branch joins both arms, so its entry state decides
		// nothing; only the else arm's edge decides it.
		{"join", `
			func main() {
				var x = input();
				if (x < 5) { print(0); }
				if (x <= 4) { print(1); } else { print(2); }
			}`, pred.Pred{Op: pred.Le, C: 4}, 1, pred.False},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, tc.src)
			outer := findBranch(t, p, "x", pred.Lt, 5)
			inner := findBranch(t, p, "x", tc.inner.Op, tc.inner.C)
			assert := p.Node(outer.Succs[tc.slot])
			if assert.Kind != ir.NAssert || len(assert.Preds) != 1 {
				t.Fatalf("arm %d of the outer branch is not its own assertion\n%s", tc.slot, p.Dump())
			}
			p.RedirectSucc(outer.ID, assert.ID, inner.ID)
			p.DeleteNode(assert.ID)
			if err := ir.Validate(p); err != nil {
				t.Fatalf("Validate: %v\n%s", err, p.Dump())
			}
			s := RunSCCP(p)
			e := edgeFrom(t, s, inner.ID, outer.ID, tc.slot)
			if !e.Live || e.Outcome != tc.want {
				t.Errorf("edge from the outer arm: live %v, outcome %v; want live, %v", e.Live, e.Outcome, tc.want)
			}
			if _, err := edgeContainment(p, s); err != nil {
				t.Error(err)
			}
		})
	}
}
