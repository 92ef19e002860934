package restructure

import (
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func findBranch(t *testing.T, p *ir.Program, varSuffix string, op pred.Op, c int64) *ir.Node {
	t.Helper()
	var found *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind != ir.NBranch || !n.Analyzable() {
			return
		}
		if strings.HasSuffix(p.VarName(n.CondVar()), varSuffix) && n.CondOp() == op && n.CondRHS().Const == c {
			found = n
		}
	})
	if found == nil {
		t.Fatalf("no branch matches %s %s %d\n%s", varSuffix, op, c, p.Dump())
	}
	return found
}

// eliminateOne analyzes and restructures a single conditional, returning
// the optimized clone.
func eliminateOne(t *testing.T, p *ir.Program, b *ir.Node, opts analysis.Options) (*ir.Program, *Outcome) {
	t.Helper()
	work := ir.Clone(p)
	res := analysis.New(work, opts).AnalyzeBranch(b.ID)
	if res == nil {
		t.Fatal("branch not analyzable")
	}
	oc, err := Eliminate(work, res)
	if err != nil {
		t.Fatalf("Eliminate: %v\n%s", err, work.Dump())
	}
	if err := ir.Validate(work); err != nil {
		t.Fatalf("Eliminate produced an invalid graph: %v\n%s", err, work.Dump())
	}
	return work, oc
}

// checkEquivalent runs both programs on the inputs and verifies identical
// output, no more executed operations, and no more executed conditionals.
func checkEquivalent(t *testing.T, orig, opt *ir.Program, inputs [][]int64) (condBefore, condAfter int64) {
	t.Helper()
	for _, in := range inputs {
		r1, err := interp.Run(orig, interp.Options{Input: in})
		if err != nil {
			t.Fatalf("original failed on %v: %v", in, err)
		}
		r2, err := interp.Run(opt, interp.Options{Input: in})
		if err != nil {
			t.Fatalf("optimized failed on %v: %v\n%s", in, err, opt.Dump())
		}
		if len(r1.Output) != len(r2.Output) {
			t.Fatalf("output mismatch on %v:\n  orig %v\n  opt  %v", in, r1.Output, r2.Output)
		}
		for i := range r1.Output {
			if r1.Output[i] != r2.Output[i] {
				t.Fatalf("output mismatch on %v:\n  orig %v\n  opt  %v", in, r1.Output, r2.Output)
			}
		}
		if r2.Operations > r1.Operations {
			t.Errorf("optimized executes more operations on %v: %d > %d", in, r2.Operations, r1.Operations)
		}
		if r2.CondExecs > r1.CondExecs {
			t.Errorf("optimized executes more conditionals on %v: %d > %d", in, r2.CondExecs, r1.CondExecs)
		}
		condBefore += r1.CondExecs
		condAfter += r2.CondExecs
	}
	return condBefore, condAfter
}

func inter() analysis.Options { return analysis.DefaultOptions() }

func TestEliminateFullyTrueBranch(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			if (x == 0) { print(1); } else { print(2); }
			print(3);
		}
	`)
	b := findBranch(t, p, "x", pred.Eq, 0)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved != 1 {
		t.Errorf("removed = %d, want 1", oc.BranchCopiesRemoved)
	}
	st := ir.Collect(opt)
	if st.Conditionals != 0 {
		t.Errorf("conditionals left = %d, want 0\n%s", st.Conditionals, opt.Dump())
	}
	before, after := checkEquivalent(t, p, opt, [][]int64{{}})
	if before != 1 || after != 0 {
		t.Errorf("cond execs %d -> %d, want 1 -> 0", before, after)
	}
}

func TestEliminatePartialCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			if (input() > 0) { x = input(); }
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	b := findBranch(t, p, "x", pred.Eq, 0)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved < 1 {
		t.Error("no branch copy removed")
	}
	inputs := [][]int64{{0}, {5, 0}, {5, 9}, {-3}, {1, -1}}
	before, after := checkEquivalent(t, p, opt, inputs)
	if after >= before {
		t.Errorf("cond execs not reduced: %d -> %d", before, after)
	}
	// On the path where input() <= 0 the second test must be gone.
	r2, err := interp.Run(opt, interp.Options{Input: []int64{-1}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.CondExecs != 1 {
		t.Errorf("cond execs on correlated path = %d, want 1 (only the first test)", r2.CondExecs)
	}
}

func TestEliminateBranchBranchCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); } else { print(2); }
			if (x == 0) { print(3); } else { print(4); }
		}
	`)
	branches := []*ir.Node{}
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			branches = append(branches, n)
		}
	})
	second := branches[0]
	if branches[1].ID > second.ID {
		second = branches[1]
	}
	opt, oc := eliminateOne(t, p, second, inter())
	if oc.BranchCopiesRemoved != 2 {
		t.Errorf("removed = %d, want 2 (both split copies)", oc.BranchCopiesRemoved)
	}
	inputs := [][]int64{{0}, {1}, {-7}}
	for _, in := range inputs {
		r, err := interp.Run(opt, interp.Options{Input: in})
		if err != nil {
			t.Fatal(err)
		}
		if r.CondExecs != 1 {
			t.Errorf("cond execs on %v = %d, want 1", in, r.CondExecs)
		}
	}
	checkEquivalent(t, p, opt, inputs)
}

func TestLoopVersioning(t *testing.T) {
	// The inner test is loop-invariant: restructuring creates two loop
	// versions, each with the inner conditional eliminated (the paper's
	// nested-loop improvement over Mueller–Whalley).
	p := build(t, `
		func main() {
			var x = input();
			var i = 0;
			var sum = 0;
			while (i < 10) {
				if (x == 0) { sum = sum + 1; } else { sum = sum + 2; }
				i = i + 1;
			}
			print(sum);
		}
	`)
	b := findBranch(t, p, "x", pred.Eq, 0)
	opt, _ := eliminateOne(t, p, b, inter())
	inputs := [][]int64{{0}, {1}, {42}}
	for _, in := range inputs {
		r1, _ := interp.Run(p, interp.Options{Input: in})
		r2, err := interp.Run(opt, interp.Options{Input: in})
		if err != nil {
			t.Fatalf("optimized failed: %v", err)
		}
		if r1.Output[0] != r2.Output[0] {
			t.Fatalf("output mismatch on %v", in)
		}
		// Original: 10 loop tests + 10 inner tests + final loop test = 21.
		// Optimized: the inner test runs at most once (first iteration
		// before the split paths separate — in fact zero times, since the
		// correlation source is before the loop).
		if r2.CondExecs > r1.CondExecs-9 {
			t.Errorf("inner conditional not removed from loop: %d vs %d conds", r2.CondExecs, r1.CondExecs)
		}
	}
}

func TestExitSplitting(t *testing.T) {
	p := build(t, `
		func get() {
			if (input() > 0) { return 0; }
			return 7;
		}
		func main() {
			var r = get();
			if (r == 0) { print(1); } else { print(2); }
		}
	`)
	b := findBranch(t, p, "r", pred.Eq, 0)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved != 2 {
		t.Errorf("removed = %d, want 2 (full correlation)", oc.BranchCopiesRemoved)
	}
	get := opt.ProcByName("get")
	if len(get.Exits) < 2 {
		t.Errorf("exit splitting expected: get has %d exits\n%s", len(get.Exits), opt.Dump())
	}
	inputs := [][]int64{{5}, {0}, {-1}}
	for _, in := range inputs {
		r, err := interp.Run(opt, interp.Options{Input: in})
		if err != nil {
			t.Fatalf("optimized failed on %v: %v\n%s", in, err, opt.Dump())
		}
		// Only the conditional inside get remains.
		if r.CondExecs != 1 {
			t.Errorf("cond execs = %d, want 1", r.CondExecs)
		}
	}
	checkEquivalent(t, p, opt, inputs)
}

func TestEntrySplitting(t *testing.T) {
	p := build(t, `
		func check(flag) {
			if (flag == 0) { return 1; }
			return 2;
		}
		func main() {
			print(check(0));
			print(check(1));
		}
	`)
	b := findBranch(t, p, "flag", pred.Eq, 0)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved != 2 {
		t.Errorf("removed = %d, want 2", oc.BranchCopiesRemoved)
	}
	check := opt.ProcByName("check")
	if len(check.Entries) < 2 {
		t.Errorf("entry splitting expected: check has %d entries\n%s", len(check.Entries), opt.Dump())
	}
	r, err := interp.Run(opt, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.CondExecs != 0 {
		t.Errorf("cond execs = %d, want 0", r.CondExecs)
	}
	checkEquivalent(t, p, opt, [][]int64{{}})
}

func TestFigure5Scenario(t *testing.T) {
	p := build(t, `
		var x;
		func f() {
			if (input() > 0) { x = input(); }
			return 0;
		}
		func main() {
			if (input() > 0) { x = input(); } else { x = 5; }
			f();
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	b := findBranch(t, p, "x", pred.Eq, 0)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved < 1 {
		t.Error("no branch removed")
	}
	inputs := [][]int64{
		{1, 0, 0},    // x=0 via first input, f leaves it
		{1, 0, 1, 0}, // x=0, f overwrites with 0
		{1, 7, -1},   // x=7, f leaves it
		{-1, -1},     // x=5, f leaves it: correlated FALSE path
		{-1, 1, 3},   // x=5, f overwrites with 3
		{-1, 1, 0},   // x=5, f overwrites with 0
	}
	before, after := checkEquivalent(t, p, opt, inputs)
	if after >= before {
		t.Errorf("cond execs not reduced: %d -> %d", before, after)
	}
	// On the fully correlated path (x=5, f transparent) the final test
	// must not execute: 2 tests before, both input()>0 tests remain = 2.
	rOpt, _ := interp.Run(opt, interp.Options{Input: []int64{-1, -1}})
	rOrig, _ := interp.Run(p, interp.Options{Input: []int64{-1, -1}})
	if rOpt.CondExecs != rOrig.CondExecs-1 {
		t.Errorf("correlated path: %d conds, want %d", rOpt.CondExecs, rOrig.CondExecs-1)
	}
}

func TestFgetcFigure1(t *testing.T) {
	// The paper's running example: in the original loop each character
	// executes several conditionals; after ICBE only one remains on the
	// common path.
	src := `
		var cnt;
		func fillbuf() {
			var n = input();
			if (n <= 0) { return -1; }
			cnt = n;
			return 0;
		}
		func fgetc() {
			if (cnt <= 0) {
				var r = fillbuf();
				if (r == -1) { return -1; }
			}
			cnt = cnt - 1;
			var c = byte(input());
			return c;
		}
		func main() {
			var c = fgetc();
			while (c != -1) {
				print(c);
				c = fgetc();
			}
		}
	`
	p := build(t, src)
	b := findBranch(t, p, "c", pred.Ne, -1)
	opt, oc := eliminateOne(t, p, b, inter())
	if oc.BranchCopiesRemoved < 2 {
		t.Errorf("removed = %d, want >= 2 (full correlation)", oc.BranchCopiesRemoved)
	}
	// Input model: fillbuf reads a chunk size, then fgetc reads bytes.
	inputs := [][]int64{
		{3, 65, 66, 67, 0},
		{1, 120, 2, 121, 122, -5},
		{0},
		{5, 1, 2, 3, 4, 5, 0},
	}
	before, after := checkEquivalent(t, p, opt, inputs)
	if after >= before {
		t.Errorf("cond execs not reduced: %d -> %d", before, after)
	}
	t.Logf("fgetc example: %d -> %d executed conditionals", before, after)
}

func TestOptimizeDriverWholeProgram(t *testing.T) {
	src := `
		func get() {
			if (input() > 0) { return 0; }
			return 7;
		}
		func main() {
			var r = get();
			if (r == 0) { print(1); } else { print(2); }
			var x = 0;
			if (x == 0) { print(3); }
		}
	`
	p := build(t, src)
	dr := Optimize(p, DriverOptions{Analysis: inter()})
	if dr.Optimized < 2 {
		t.Errorf("optimized = %d conditionals, want >= 2", dr.Optimized)
	}
	if err := ir.Validate(dr.Program); err != nil {
		t.Fatalf("driver output invalid: %v", err)
	}
	inputs := [][]int64{{1}, {0}, {-9}}
	before, after := checkEquivalent(t, p, dr.Program, inputs)
	if after >= before {
		t.Errorf("cond execs not reduced: %d -> %d", before, after)
	}
	// Reports must cover every branch.
	if len(dr.Reports) == 0 || dr.PairsTotal == 0 {
		t.Error("driver reports empty")
	}
}

func TestDriverDuplicationLimit(t *testing.T) {
	src := `
		func main() {
			var x = 0;
			if (input() > 0) { x = input(); }
			print(input()); print(input()); print(input());
			print(input()); print(input()); print(input());
			if (x == 0) { print(1); } else { print(2); }
		}
	`
	p := build(t, src)
	// With a tiny duplication limit the second conditional (which needs
	// the whole print chain duplicated) must be skipped.
	dr := Optimize(p, DriverOptions{Analysis: inter(), MaxDuplication: 2})
	for _, rep := range dr.Reports {
		if rep.Applied && rep.DupEstimate > 2 {
			t.Errorf("applied restructuring with estimate %d over limit", rep.DupEstimate)
		}
	}
	// With no limit it gets optimized.
	dr2 := Optimize(p, DriverOptions{Analysis: inter()})
	if dr2.Optimized <= dr.Optimized {
		t.Errorf("unlimited driver should optimize more: %d vs %d", dr2.Optimized, dr.Optimized)
	}
	checkEquivalent(t, p, dr.Program, [][]int64{{1, 9, 1, 2, 3, 4, 5, 6}})
	checkEquivalent(t, p, dr2.Program, [][]int64{{1, 9, 1, 2, 3, 4, 5, 6}, {-1, 1, 2, 3, 4, 5, 6}})
}

func TestDriverIntraVsInter(t *testing.T) {
	src := `
		func get() {
			if (input() > 0) { return 0; }
			return 7;
		}
		func main() {
			var r = get();
			if (r == 0) { print(1); } else { print(2); }
		}
	`
	p := build(t, src)
	intra := Optimize(p, DriverOptions{Analysis: analysis.Options{ModSummaries: true}})
	interR := Optimize(p, DriverOptions{Analysis: inter()})
	if interR.Optimized <= intra.Optimized {
		t.Errorf("inter should optimize more: inter %d, intra %d", interR.Optimized, intra.Optimized)
	}
	checkEquivalent(t, p, intra.Program, [][]int64{{1}, {0}})
	checkEquivalent(t, p, interR.Program, [][]int64{{1}, {0}})
}

func TestRecursiveProgramSurvives(t *testing.T) {
	src := `
		func fib(n) {
			if (n < 2) { return n; }
			return fib(n - 1) + fib(n - 2);
		}
		func main() { print(fib(12)); }
	`
	p := build(t, src)
	dr := Optimize(p, DriverOptions{Analysis: inter()})
	if err := ir.Validate(dr.Program); err != nil {
		t.Fatalf("invalid after optimizing recursion: %v", err)
	}
	checkEquivalent(t, p, dr.Program, [][]int64{{}})
}

func TestHeapProgramSurvives(t *testing.T) {
	src := `
		func cons(v, next) {
			var c = alloc(2);
			c[0] = v;
			c[1] = next;
			return c;
		}
		func sum(list) {
			var s = 0;
			while (list != 0) {
				s = s + list[0];
				list = list[1];
			}
			return s;
		}
		func main() {
			var l = 0;
			var i = input();
			while (i != -1) {
				l = cons(i, l);
				i = input();
			}
			print(sum(l));
		}
	`
	p := build(t, src)
	dr := Optimize(p, DriverOptions{Analysis: inter()})
	if err := ir.Validate(dr.Program); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	checkEquivalent(t, p, dr.Program, [][]int64{{1, 2, 3}, {}, {10, 20, 30, 40, 5}})
}

func TestEliminateFailsGracefullyOnMissingCond(t *testing.T) {
	p := build(t, `func main() { var x = 0; if (x == 0) { print(1); } }`)
	b := findBranch(t, p, "x", pred.Eq, 0)
	work := ir.Clone(p)
	res := analysis.New(work, inter()).AnalyzeBranch(b.ID)
	work.DeleteNode(b.ID)
	if _, err := Eliminate(work, res); err == nil {
		t.Error("expected error for deleted conditional")
	}
	if _, err := Eliminate(work, nil); err == nil {
		t.Error("expected error for nil result")
	}
}
