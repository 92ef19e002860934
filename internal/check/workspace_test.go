package check

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// sameFacts reports the first difference between two reports on p, or nil:
// ValueAt for every (node, variable), Reachable, BranchOutcome, EdgeFacts,
// MustFailAsserts, the findings and PerPass. One node and one variable
// past each end are probed too.
func sameFacts(p *ir.Program, got, want *Report) error {
	if !reflect.DeepEqual(got.PerPass, want.PerPass) {
		return fmt.Errorf("PerPass %v, want %v", got.PerPass, want.PerPass)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		return fmt.Errorf("findings %v, want %v", got.Findings, want.Findings)
	}
	g, w := got.SCCP, want.SCCP
	if a, b := g.MustFailAsserts(), w.MustFailAsserts(); !slices.Equal(a, b) {
		return fmt.Errorf("must-fail asserts %v, want %v", a, b)
	}
	for n := ir.NodeID(-1); int(n) <= p.NumNodes(); n++ {
		if a, b := g.Reachable(n), w.Reachable(n); a != b {
			return fmt.Errorf("node %d: reachable %v, want %v", n, a, b)
		}
		if a, b := g.BranchOutcome(n), w.BranchOutcome(n); a != b {
			return fmt.Errorf("node %d: branch outcome %v, want %v", n, a, b)
		}
		if a, b := g.EdgeFacts(nil, n, nil), w.EdgeFacts(nil, n, nil); !slices.Equal(a, b) {
			return fmt.Errorf("node %d: edge facts %v, want %v", n, a, b)
		}
		for v := ir.VarID(-1); int(v) <= len(p.Vars); v++ {
			if a, b := g.ValueAt(n, v), w.ValueAt(n, v); a != b {
				return fmt.Errorf("node %d: v%d is %v, want %v", n, v, a, b)
			}
		}
	}
	return nil
}

// TestWorkspaceMatchesFresh runs one workspace over the paper programs and
// generated ones, largest to smallest and back, so every run after the
// first reuses memory an earlier, differently shaped program left behind.
// Each report must equal a fresh AnalyzeInvariants of its program. As in
// the driver, the previous report is released only once the next is
// computed, so two results hold memory at a time.
func TestWorkspaceMatchesFresh(t *testing.T) {
	type named struct {
		name string
		p    *ir.Program
	}
	var all []named
	add := func(name, src string) {
		p, err := ir.Build(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all = append(all, named{name, p})
	}
	for _, w := range progs.All() {
		add(w.Name, w.Source)
	}
	for _, seed := range checkSeeds {
		add(fmt.Sprintf("generate-%d", seed), randprog.Generate(seed, fuzzCfg))
		add(fmt.Sprintf("recursion-%d", seed), randprog.Recursion(seed, randprog.RecConfig{}))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p.NumNodes() > all[j].p.NumNodes() })
	order := slices.Concat(all, all[:len(all)-1:len(all)-1])
	slices.Reverse(order[len(all):])

	ws := new(Workspace)
	var prev *Report
	reused := 0
	for _, x := range order {
		free := len(ws.free)
		got := ws.AnalyzeInvariants(x.p)
		if free > 0 && len(ws.free) == free-1 {
			reused++
		}
		if err := sameFacts(x.p, got, AnalyzeInvariants(x.p)); err != nil {
			t.Fatalf("%s (%d nodes): %v", x.name, x.p.NumNodes(), err)
		}
		if prev != nil {
			prev.Release()
		}
		prev = got
	}
	if reused != len(order)-2 {
		t.Errorf("%d of %d runs reused released memory, want %d", reused, len(order), len(order)-2)
	}
	t.Logf("%d runs, largest program %s (%d nodes)", len(order), all[0].name, all[0].p.NumNodes())
}

// TestReleasedReportPanics requires every read of a released report, and of
// its SCCP, to panic: the memory may already hold another program's facts,
// and a vacuous oracle would turn CrossCheck into agreement.
func TestReleasedReportPanics(t *testing.T) {
	p := build(t, `
		func f(a) { if (a > 0) { return 1; } return 2; }
		func main() { var x = f(input()); if (x == 1) { print(1); } }
	`)
	var b ir.NodeID = ir.NoNode
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			b = n.ID
		}
	})
	ws := new(Workspace)
	rep := ws.AnalyzeInvariants(p)
	s := rep.SCCP
	rep.Release()
	rep.Release() // a no-op, not a second free entry
	if len(ws.free) != 1 {
		t.Fatalf("%d free entries after a double release, want 1", len(ws.free))
	}
	reads := map[string]func(){
		"Count":           func() { rep.Count("structure") },
		"FirstFinding":    func() { _, _ = rep.FirstFinding("structure") },
		"Reachable":       func() { s.Reachable(b) },
		"ValueAt":         func() { s.ValueAt(b, 0) },
		"BranchOutcome":   func() { s.BranchOutcome(b) },
		"EdgeFacts":       func() { s.EdgeFacts(nil, b, nil) },
		"MustFailAsserts": func() { s.MustFailAsserts() },
		"CrossCheck":      func() { CrossCheck(p, s, b, analysis.AnsTrue) },
		"RecallCount":     func() { RecallCount(p, s) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released report did not panic", name)
				}
			}()
			read()
		})
	}
	// The released memory serves the next run, whose facts are fresh.
	next := ws.AnalyzeInvariants(p)
	if len(ws.free) != 0 {
		t.Errorf("the next run left %d free entries, want 0", len(ws.free))
	}
	if err := sameFacts(p, next, AnalyzeInvariants(p)); err != nil {
		t.Error(err)
	}
}
