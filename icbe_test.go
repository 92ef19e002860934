package icbe

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"icbe/internal/ir"
)

const apiDemoSrc = `
	func get() {
		if (input() > 0) { return 0; }
		return 7;
	}
	func main() {
		var r = get();
		if (r == 0) { print(1); } else { print(2); }
	}
`

func TestCompileAndRun(t *testing.T) {
	p, err := Compile(apiDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Errorf("output = %v, want [1]", res.Output)
	}
	if res.Conditionals != 2 {
		t.Errorf("conditionals executed = %d, want 2", res.Conditionals)
	}
	st := p.Stats()
	if st.Procedures != 2 || st.Conditionals != 2 || st.AnalyzableConds != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.SourceLines == 0 || st.Nodes == 0 || st.Operations == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("func main() { x = 1; }"); err == nil {
		t.Error("expected compile error")
	}
	if _, err := Compile("not a program"); err == nil {
		t.Error("expected parse error")
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	p, err := Compile(apiDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt, rep, err := p.Optimize(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Optimized == 0 {
		t.Fatal("nothing optimized")
	}
	for _, in := range [][]int64{{5}, {0}, {-2}} {
		r1, err1 := p.Run(in)
		r2, err2 := opt.Run(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Output[0] != r2.Output[0] {
			t.Errorf("output mismatch on %v", in)
		}
		if r2.Conditionals >= r1.Conditionals {
			t.Errorf("no dynamic reduction on %v: %d vs %d", in, r2.Conditionals, r1.Conditionals)
		}
		if r2.Operations > r1.Operations {
			t.Errorf("safety violated on %v", in)
		}
	}
	// Find the caller's test in the report: it must be fully correlated.
	full := 0
	for _, c := range rep.Conditionals {
		if c.Full && c.Applied {
			full++
			if !strings.Contains(c.Answers, "T") || !strings.Contains(c.Answers, "F") {
				t.Errorf("full conditional answers = %s", c.Answers)
			}
		}
	}
	if full == 0 {
		t.Error("no fully correlated conditional optimized")
	}
	if rep.PairsTotal == 0 {
		t.Error("no analysis work recorded")
	}
}

func TestIntraBaselineWeaker(t *testing.T) {
	p, _ := Compile(apiDemoSrc)
	_, repIntra, _ := p.Optimize(IntraOptions())
	_, repInter, _ := p.Optimize(DefaultOptions())
	if repIntra.Optimized >= repInter.Optimized {
		t.Errorf("intra %d >= inter %d", repIntra.Optimized, repInter.Optimized)
	}
}

func TestRunProfiled(t *testing.T) {
	p, _ := Compile(apiDemoSrc)
	res, err := p.RunProfiled([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeCounts) == 0 {
		t.Error("no node counts recorded")
	}
}

func TestAnalyzeConditional(t *testing.T) {
	src := "func get() {\n" + // line 1
		"  if (input() > 0) { return 0; }\n" + // line 2
		"  return 7;\n" +
		"}\n" +
		"func main() {\n" +
		"  var r = get();\n" +
		"  if (r == 0) { print(1); } else { print(2); }\n" + // line 7
		"}\n"
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := p.AnalyzeConditional(7, DefaultOptions())
	if !ok {
		t.Fatal("conditional not found on line 7")
	}
	if !rep.Correlated || !rep.Full {
		t.Errorf("report = %+v, want full correlation", rep)
	}
	if rep.Answers != "{T,F}" {
		t.Errorf("answers = %s", rep.Answers)
	}
	if _, ok := p.AnalyzeConditional(99, DefaultOptions()); ok {
		t.Error("found conditional on empty line")
	}
	// Dump and Dot render.
	if !strings.Contains(p.Dump(), "proc main") || !strings.Contains(p.Dot(), "digraph") {
		t.Error("dump/dot broken")
	}
}

func TestPredictionHintsAPI(t *testing.T) {
	src := "func main() {\n" +
		"  var a = input();\n" +
		"  if (a > 0) { print(1); }\n" + // line 3
		"  if (a > 0) { print(2); }\n" + // line 4
		"}\n"
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	hints := p.PredictionHints(4, DefaultOptions())
	if len(hints) == 0 {
		t.Fatal("no hints")
	}
	foundBranch := false
	for _, h := range hints {
		if h.SourceKind == "branch" {
			foundBranch = true
			if h.BranchLine != 3 {
				t.Errorf("hint branch line = %d, want 3", h.BranchLine)
			}
			if h.Outcome != "true" && h.Outcome != "false" {
				t.Errorf("outcome = %q", h.Outcome)
			}
		}
	}
	if !foundBranch {
		t.Errorf("no branch hint in %+v", hints)
	}
	if got := p.PredictionHints(99, DefaultOptions()); got != nil {
		t.Errorf("hints for empty line = %+v", got)
	}
}

func TestInliningPrioritiesAPI(t *testing.T) {
	p, err := Compile(apiDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	pris := p.InliningPriorities(DefaultOptions(), nil)
	if len(pris) == 0 || pris[0].Procedure != "get" {
		t.Fatalf("priorities = %+v", pris)
	}
	prof, err := p.RunProfiled([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	weighted := p.InliningPriorities(DefaultOptions(), prof)
	if len(weighted) == 0 || weighted[0].Weight == 0 {
		t.Errorf("weighted priorities = %+v", weighted)
	}
}

func TestCompactOption(t *testing.T) {
	p, err := Compile(apiDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Compact = true
	opt, _, _ := p.Optimize(opts)
	optPlain, _, _ := p.Optimize(DefaultOptions())
	if opt.Stats().Nodes >= optPlain.Stats().Nodes {
		t.Errorf("compaction did not shrink nodes: %d vs %d", opt.Stats().Nodes, optPlain.Stats().Nodes)
	}
	for _, in := range [][]int64{{5}, {0}} {
		r1, err1 := optPlain.Run(in)
		r2, err2 := opt.Run(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Output[0] != r2.Output[0] || r1.Operations != r2.Operations {
			t.Errorf("compaction changed behavior on %v", in)
		}
	}
}

// TestCompactLoopEndingInBranch compacts, through Optimize, a program whose
// loop body ends in a branch on an input the analysis cannot decide. The
// result shares its nodes with the compiled graph, and contracting the
// loop head replaces the body's join with a private copy while Simplify
// still holds the join as a candidate; the candidate must be re-read, not
// contracted from its stale version.
func TestCompactLoopEndingInBranch(t *testing.T) {
	const src = `func main() {
	var i = input();
	while (i > 0) {
		i = i - 1;
		if (input() > 0) { print(i); }
	}
	print(0);
}`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Compact = true
	opt, _, err := p.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Validate(opt.Graph()); err != nil {
		t.Fatal(err)
	}
	plain, _, err := p.Optimize(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats().Nodes >= plain.Stats().Nodes {
		t.Errorf("compaction did not shrink nodes: %d vs %d", opt.Stats().Nodes, plain.Stats().Nodes)
	}
	for _, in := range [][]int64{{0}, {3, 1, 0, 1}} {
		r1, err1 := plain.Run(in)
		r2, err2 := opt.Run(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(r1.Output, r2.Output) || r1.Operations != r2.Operations {
			t.Errorf("compaction changed behavior on %v", in)
		}
	}
}

func TestOptimizeWorkersDeterminismAndStats(t *testing.T) {
	p, err := Compile(apiDemoSrc)
	if err != nil {
		t.Fatal(err)
	}
	serialOpts := DefaultOptions()
	serialOpts.Workers = 1
	serial, srep, err := p.Optimize(serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := DefaultOptions()
	parOpts.Workers = 8
	par, prep, err := p.Optimize(parOpts)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Dump() != par.Dump() {
		t.Error("Workers=1 and Workers=8 produced different programs")
	}
	// Reports must agree except for the wall-clock and worker-count fields.
	srep.Stats.Workers, prep.Stats.Workers = 0, 0
	srep.Stats.AnalysisWall, prep.Stats.AnalysisWall = 0, 0
	srep.Stats.ApplyWall, prep.Stats.ApplyWall = 0, 0
	if !reflect.DeepEqual(srep, prep) {
		t.Errorf("reports differ:\n serial %+v\n par    %+v", srep, prep)
	}

	if srep.Stats.Rounds < 1 || srep.Stats.Clones < 1 || srep.Stats.Analyses < 1 {
		t.Errorf("driver stats not populated: %+v", srep.Stats)
	}
	if srep.Truncated {
		t.Error("unexpected truncation on the demo program")
	}
}

// TestConcurrentOptimizeSharedInput optimizes one compiled Program from
// four goroutines at once, and then one optimized Program the same way.
// Optimize forks its input rather than copying it, so this pins the sharing
// contract for both kinds of Program: the goroutines must not race (go test
// -race), each result must encode exactly like a sequential run on a
// separately made copy, and the input must not change.
func TestConcurrentOptimizeSharedInput(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Compact = true
	optimize := func(t *testing.T, p *Program) *Program {
		t.Helper()
		op, _, err := p.Optimize(opts)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	// concurrently optimizes p from four goroutines and checks every result
	// against want and p against its encoding beforehand.
	concurrently := func(t *testing.T, p *Program, want []byte) {
		t.Helper()
		input := ir.EncodeProgram(p.Graph())
		got := make([][]byte, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				op, _, err := p.Optimize(opts)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = ir.EncodeProgram(op.Graph())
			}()
		}
		wg.Wait()
		for i, g := range got {
			if !bytes.Equal(g, want) {
				t.Errorf("goroutine %d: result differs from a sequential run on its own copy", i)
			}
		}
		if !bytes.Equal(ir.EncodeProgram(p.Graph()), input) {
			t.Error("optimizing the program changed it")
		}
	}
	for _, sh := range coldShapes {
		t.Run(sh.name, func(t *testing.T) {
			src := sh.gen(1)
			alone, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			once := optimize(t, alone)
			twice := optimize(t, once)

			p, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			concurrently(t, p, ir.EncodeProgram(once.Graph()))
			concurrently(t, optimize(t, p), ir.EncodeProgram(twice.Graph()))
		})
	}
}
