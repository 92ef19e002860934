package restructure

// Integration tests between the analysis and restructuring: analysis on
// already-restructured (multi-entry/exit) graphs, determinism, transitive
// summaries, and resolution corner cases that need the full pipeline.

import (
	"errors"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

func analyzeB(t *testing.T, p *ir.Program, b *ir.Node, opts analysis.Options) *analysis.Result {
	t.Helper()
	res := analysis.New(p, opts).AnalyzeBranch(b.ID)
	if res == nil {
		t.Fatal("nil analysis result")
	}
	return res
}

// TestAnalysisOnRestructuredGraph verifies the analysis handles graphs
// with multiple procedure entries and exits — the paper: "the analysis is
// invoked on a restructured program in which procedures can have multiple
// entries".
func TestAnalysisOnRestructuredGraph(t *testing.T) {
	src := `
		func get() {
			if (input() > 0) { return 0; }
			return 7;
		}
		func main() {
			var r = get();
			if (r == 0) { print(1); } else { print(2); }
			var s = get();
			if (s == 7) { print(3); } else { print(4); }
		}
	`
	p := build(t, src)
	b1 := findBranch(t, p, "r", pred.Eq, 0)
	res1 := analyzeB(t, p, b1, inter())
	if _, err := Eliminate(p, res1); err != nil {
		t.Fatalf("first eliminate: %v", err)
	}
	if err := ir.Validate(p); err != nil {
		t.Fatal(err)
	}
	get := p.ProcByName("get")
	if len(get.Exits) < 2 {
		t.Fatalf("expected split exits, got %d", len(get.Exits))
	}
	// Analyze the second caller test on the multi-exit graph.
	b2 := findBranch(t, p, "s", pred.Eq, 7)
	res2 := analyzeB(t, p, b2, inter())
	if got := res2.RootAnswers(); got != analysis.AnsTrue|analysis.AnsFalse {
		t.Errorf("root answers = %v, want {T,F}", got)
	}
	if _, err := Eliminate(p, res2); err != nil {
		t.Fatalf("second eliminate: %v", err)
	}
	if err := ir.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// TestAnalysisDeterministic verifies repeated runs produce identical
// answers and identical cost counters.
func TestAnalysisDeterministic(t *testing.T) {
	p := build(t, `
		var g;
		func f(a) {
			if (a > 0) { g = a; return 1; }
			return 0;
		}
		func main() {
			var r = f(input());
			if (r == 1) { print(g); }
			if (g > 0) { print(2); }
		}
	`)
	type obs struct {
		ans   analysis.AnswerSet
		pairs int
	}
	var first []obs
	for round := 0; round < 3; round++ {
		var got []obs
		an := analysis.New(p, inter())
		p.LiveNodes(func(n *ir.Node) {
			if n.Kind == ir.NBranch && n.Analyzable() {
				res := an.AnalyzeBranch(n.ID)
				got = append(got, obs{res.RootAnswers(), res.PairsProcessed})
			}
		})
		if round == 0 {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatal("nondeterministic result count")
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("round %d: result %d differs: %+v vs %+v", round, i, got[i], first[i])
			}
		}
	}
}

// TestCalleeChainTransitiveSummaries exercises summary queries that cross
// two call levels.
func TestCalleeChainTransitiveSummaries(t *testing.T) {
	p := build(t, `
		var g;
		func inner() {
			if (input() > 0) { g = input(); }
			return 0;
		}
		func outer() {
			inner();
			return 0;
		}
		func main() {
			g = 5;
			outer();
			if (g == 5) { print(1); } else { print(2); }
		}
	`)
	b := findBranch(t, p, "g", pred.Eq, 5)
	res := analyzeB(t, p, b, inter())
	if got := res.RootAnswers(); got != analysis.AnsTrue|analysis.AnsUndef {
		t.Errorf("root answers = %v, want {T,U}", got)
	}
	// Summaries for both outer and inner: each callee's exit hosts the
	// summary query of a summary node entry stored there.
	for _, name := range []string{"outer", "inner"} {
		exit := p.ProcByName(name).Exits[0]
		summary := false
		for _, q := range res.QueriesAt(exit) {
			if q.Owner != nil && q.Owner.Exit == exit && q.Owner.Qsn == q {
				summary = true
			}
		}
		if !summary {
			t.Errorf("no summary node entry at %s's exit", name)
		}
	}
	// And the whole pipeline still works on it.
	opt, _ := eliminateOne(t, p, b, inter())
	checkEquivalent(t, p, opt, [][]int64{{1, 0, 5}, {-1}, {200, 5}, {1, 5}})
}

// TestGlobalDestinationAtCallExit covers a call result assigned to a
// global that the callee also modifies.
func TestGlobalDestinationAtCallExit(t *testing.T) {
	p := build(t, `
		var g;
		func make() {
			g = input();
			return 3;
		}
		func main() {
			g = make();
			if (g == 3) { print(1); } else { print(g); }
		}
	`)
	b := findBranch(t, p, "g", pred.Eq, 3)
	res := analyzeB(t, p, b, inter())
	// The call-site exit g := $ret overwrites whatever make stored; the
	// return value is the constant 3: fully TRUE.
	if got := res.RootAnswers(); got != analysis.AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved != 1 {
		t.Errorf("removed = %d", oc.BranchCopiesRemoved)
	}
	checkEquivalent(t, p, opt, [][]int64{{9}, {}})
}

// TestSelfRecursiveSummary: summaries across direct recursion terminate,
// and restructuring declines the ambiguous-transparency case they create
// (the summary query is transformed by `g = n` on one path and untouched
// on the others, so a single TRANS class cannot separate the paths — see
// ErrAmbiguousTransparency).
func TestSelfRecursiveSummary(t *testing.T) {
	src := `
		var g;
		func dig(n) {
			if (n <= 0) { return 0; }
			if (input() > 100) { g = n; }
			return dig(n - 1);
		}
		func main() {
			g = 1;
			dig(input());
			if (g == 1) { print(1); } else { print(2); }
		}
	`
	p := build(t, src)
	b := findBranch(t, p, "g", pred.Eq, 1)
	res := analyzeB(t, p, b, inter())
	// The analysis answer set is correct: transparent recursion chains
	// (TRUE) and overwriting paths (UNDEF).
	if got := res.RootAnswers(); got != analysis.AnsTrue|analysis.AnsUndef {
		t.Errorf("root answers = %v, want {T,U}", got)
	}
	// Restructuring must refuse rather than miscompile.
	work := ir.Clone(p)
	resW := analysis.New(work, inter()).AnalyzeBranch(b.ID)
	_, err := Eliminate(work, resW)
	if !errors.Is(err, ErrAmbiguousTransparency) {
		t.Fatalf("Eliminate error = %v, want ErrAmbiguousTransparency", err)
	}
	// The driver skips it and the program stays correct.
	dr := Optimize(p, DriverOptions{Analysis: inter(), MaxDuplication: 200})
	checkEquivalent(t, p, dr.Program, [][]int64{
		{3, 1, 2, 3},
		{2, 500, 1},
		{0},
		{4, 101, 101, 101, 101},
	})
}

// TestOptimizeIdempotentSemantics: running the driver on its own output
// keeps semantics and never increases dynamic conditionals.
func TestOptimizeIdempotentSemantics(t *testing.T) {
	src := `
		func sign(v) {
			if (v < 0) { return -1; }
			if (v == 0) { return 0; }
			return 1;
		}
		func main() {
			var i = 0;
			while (i < 5) {
				var s = sign(input());
				if (s == 0) { print(100); }
				else if (s == -1) { print(200); }
				else { print(300); }
				i = i + 1;
			}
		}
	`
	p := build(t, src)
	opts := DriverOptions{Analysis: inter(), MaxDuplication: 200}
	once := Optimize(p, opts)
	twice := Optimize(once.Program, opts)
	if err := ir.Validate(twice.Program); err != nil {
		t.Fatal(err)
	}
	inputs := [][]int64{{1, -2, 0, 5, -9}, {0, 0, 0, 0, 0}, {}}
	checkEquivalent(t, p, once.Program, inputs)
	checkEquivalent(t, once.Program, twice.Program, inputs)
}

// TestFullOnlyDriver restricts optimization to fully correlated
// conditionals.
func TestFullOnlyDriver(t *testing.T) {
	src := `
		func main() {
			var x = 0;
			if (input() > 0) { x = input(); }
			if (x == 0) { print(1); }      // partial: {T,U}
			var y = 3;
			if (y == 3) { print(2); }      // full: {T}
		}
	`
	p := build(t, src)
	dr := Optimize(p, DriverOptions{Analysis: inter(), FullOnly: true})
	applied := 0
	for _, rep := range dr.Reports {
		if rep.Applied {
			applied++
			if !rep.Full {
				t.Errorf("FullOnly applied to partial conditional at line %d", rep.Line)
			}
		}
	}
	if applied == 0 {
		t.Error("FullOnly applied nothing")
	}
	checkEquivalent(t, p, dr.Program, [][]int64{{5, 0}, {-1}})
}

// TestBenefitGateDriver: the profile-guided gate skips low-benefit
// conditionals.
func TestBenefitGateDriver(t *testing.T) {
	src := `
		func main() {
			var cold = 0;
			if (input() > 50) { cold = input(); }
			if (cold == 0) { print(1); }
			var i = 0;
			var hot = 7;
			while (i < 100) {
				if (hot == 7) { print(2); }
				i = i + 1;
			}
		}
	`
	p := build(t, src)
	prof := map[ir.NodeID]int64{}
	p.LiveNodes(func(n *ir.Node) { prof[n.ID] = 1 }) // flat profile: everything cheap
	dr := Optimize(p, DriverOptions{
		Analysis: inter(), Profile: prof, MinBenefitPerNode: 1000,
	})
	if dr.Optimized != 0 {
		t.Errorf("high threshold should gate everything, optimized %d", dr.Optimized)
	}
	dr2 := Optimize(p, DriverOptions{
		Analysis: inter(), Profile: prof, MinBenefitPerNode: 0.001,
	})
	if dr2.Optimized == 0 {
		t.Error("tiny threshold should allow optimization")
	}
	for _, rep := range dr2.Reports {
		if rep.Applied && rep.Benefit == 0 {
			t.Errorf("applied with zero recorded benefit at line %d", rep.Line)
		}
	}
}
