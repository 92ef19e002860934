package analysis

import (
	"strings"
	"sync"
	"testing"

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
	if err := ir.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

// findBranch locates the unique analyzable branch whose condition variable
// name has the given suffix and whose predicate matches.
func findBranch(t *testing.T, p *ir.Program, varSuffix string, op pred.Op, c int64) *ir.Node {
	t.Helper()
	var found *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind != ir.NBranch || !n.Analyzable() {
			return
		}
		if strings.HasSuffix(p.VarName(n.CondVar()), varSuffix) && n.CondOp() == op && n.CondRHS().Const == c {
			if found != nil {
				t.Fatalf("multiple branches match %s %s %d", varSuffix, op, c)
			}
			found = n
		}
	})
	if found == nil {
		t.Fatalf("no branch matches %s %s %d\n%s", varSuffix, op, c, p.Dump())
	}
	return found
}

func analyze(t *testing.T, p *ir.Program, b *ir.Node, opts Options) *Result {
	t.Helper()
	res := New(p, opts).AnalyzeBranch(b.ID)
	if res == nil {
		t.Fatalf("AnalyzeBranch returned nil for analyzable branch")
	}
	return res
}

func inter() Options { return DefaultOptions() }
func intra() Options { return Options{Interprocedural: false, ModSummaries: true} }

func TestConstantAssignmentFullTrue(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			if (x == 0) { print(1); } else { print(2); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "x", pred.Eq, 0), inter())
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
	if !res.FullCorrelation() || !res.HasCorrelation() {
		t.Error("expected full correlation")
	}
}

func TestPartialCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			if (input() > 0) { x = input(); }
			if (x == 0) { print(1); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "x", pred.Eq, 0), inter())
	if got := res.RootAnswers(); got != AnsTrue|AnsUndef {
		t.Errorf("root answers = %v, want {T,U}", got)
	}
	if res.FullCorrelation() {
		t.Error("partial correlation reported as full")
	}
	if !res.HasCorrelation() {
		t.Error("correlation not detected")
	}
}

func TestBranchAssertCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x == 0) { print(1); }
			if (x == 0) { print(2); }
		}
	`)
	// The second test is fully correlated with the first.
	branches := []*ir.Node{}
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			branches = append(branches, n)
		}
	})
	if len(branches) != 2 {
		t.Fatalf("branches = %d", len(branches))
	}
	second := branches[0]
	if branches[1].ID > second.ID {
		second = branches[1]
	}
	res := analyze(t, p, second, inter())
	if got := res.RootAnswers(); got != AnsTrue|AnsFalse {
		t.Errorf("root answers = %v, want {T,F}", got)
	}
	if !res.FullCorrelation() {
		t.Error("expected full correlation from branch assertions")
	}
}

func TestImpliedCorrelationBetweenDifferentPredicates(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			if (x > 10) { print(1); } else { return; }
			if (x > 5) { print(2); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "x", pred.Gt, 5), inter())
	// Reaching the second test requires x > 10, which implies x > 5.
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
}

func TestLoopSelfCorrelation(t *testing.T) {
	// The loop test correlates with itself around the back edge because x
	// is not redefined in the body (the paper's self-correlation remark).
	p := build(t, `
		func main() {
			var x = input();
			var i = 0;
			while (x != 0) {
				i = i + 1;
				if (i > 100) { break; }
			}
			print(i);
		}
	`)
	res := analyze(t, p, findBranch(t, p, "x", pred.Ne, 0), inter())
	// Along the back edge the outcome is TRUE (loop entered means x != 0);
	// from function entry it is UNDEF.
	if got := res.RootAnswers(); got != AnsTrue|AnsUndef {
		t.Errorf("root answers = %v, want {T,U}", got)
	}
}

func TestCopySubstitution(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 5;
			var y = x;
			var z = y;
			if (z == 5) { print(1); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "z", pred.Eq, 5), inter())
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
}

func TestByteConversionCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var c = byte(input());
			if (c == -1) { print(1); } else { print(2); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "c", pred.Eq, -1), inter())
	if got := res.RootAnswers(); got != AnsFalse {
		t.Errorf("root answers = %v, want {F}", got)
	}
}

func TestDerefCorrelation(t *testing.T) {
	p := build(t, `
		func main() {
			var p = input();
			var v = p[0];
			if (p == 0) { print(1); } else { print(v); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "p", pred.Eq, 0), inter())
	if got := res.RootAnswers(); got != AnsFalse {
		t.Errorf("root answers = %v, want {F} (pointer was dereferenced)", got)
	}
}

func TestAllocNonNil(t *testing.T) {
	p := build(t, `
		func main() {
			var p = alloc(2);
			if (p != 0) { print(1); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "p", pred.Ne, 0), inter())
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
}

func TestInterproceduralReturnValue(t *testing.T) {
	// The paper's flagship pattern: the callee returns a tested sentinel.
	p := build(t, `
		func get() {
			if (input() > 0) { return 0; }
			return input();
		}
		func main() {
			var r = get();
			if (r == 0) { print(1); } else { print(2); }
		}
	`)
	b := findBranch(t, p, "r", pred.Eq, 0)
	res := analyze(t, p, b, inter())
	if got := res.RootAnswers(); got != AnsTrue|AnsUndef {
		t.Errorf("inter root answers = %v, want {T,U}", got)
	}
	// The baseline cannot see into the callee.
	resIntra := analyze(t, p, b, intra())
	if got := resIntra.RootAnswers(); got != AnsUndef {
		t.Errorf("intra root answers = %v, want {U}", got)
	}
}

func TestFigure5GlobalThroughSummary(t *testing.T) {
	// Mirrors the paper's Figure 5: a global x, set before the call along
	// two paths (unknown at A, constant at B); the callee modifies x on
	// one path and is transparent on the other.
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
	res := analyze(t, p, findBranch(t, p, "x", pred.Eq, 0), inter())
	// Paths: x=input (U), x=5 (F) — both possibly overwritten in f (U) or
	// transparent. Union: {F, U}.
	if got := res.RootAnswers(); got != AnsFalse|AnsUndef {
		t.Errorf("root answers = %v, want {F,U}", got)
	}
	// A summary node entry must exist, with TRANS recorded at f's entry.
	if len(res.st.snes) == 0 {
		t.Fatal("no summary node entries created")
	}
	s := res.st.snes[0]
	f := p.ProcByName("f")
	exitAns := res.AnswerAt(s.Exit, s.Qsn)
	if exitAns != AnsUndef|AnsTrans {
		t.Errorf("summary answers at exit = %v, want {U,Tr}", exitAns)
	}
	if len(s.EntriesAt(f.Entries[0])) == 0 {
		t.Error("no entry queries recorded for the transparent path")
	}
}

func TestModSummarySkipsCallee(t *testing.T) {
	p := build(t, `
		var g;
		func noop(a) { return a + 1; }
		func main() {
			g = 7;
			var r = noop(1);
			if (g == 7) { print(r); }
		}
	`)
	b := findBranch(t, p, "g", pred.Eq, 7)
	res := analyze(t, p, b, inter())
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
	if len(res.st.snes) != 0 {
		t.Errorf("MOD summaries should have skipped the callee, got %d SNEs", len(res.st.snes))
	}
	// Without MOD summaries the callee is traversed but the answer is the
	// same.
	res2 := analyze(t, p, b, Options{Interprocedural: true})
	if got := res2.RootAnswers(); got != AnsTrue {
		t.Errorf("no-MOD root answers = %v, want {T}", got)
	}
	if len(res2.st.snes) == 0 {
		t.Error("expected summary traversal without MOD info")
	}
	if res2.PairsProcessed <= res.PairsProcessed {
		t.Errorf("MOD summaries should reduce work: %d vs %d", res.PairsProcessed, res2.PairsProcessed)
	}
	// The intraprocedural baseline also benefits from MOD information.
	res3 := analyze(t, p, b, intra())
	if got := res3.RootAnswers(); got != AnsTrue {
		t.Errorf("intra+MOD root answers = %v, want {T}", got)
	}
	// Intra without MOD must give up at the call.
	res4 := analyze(t, p, b, Options{})
	if got := res4.RootAnswers(); got != AnsUndef {
		t.Errorf("intra-no-MOD root answers = %v, want {U}", got)
	}
}

func TestGlobalModifiedByCalleeTraversed(t *testing.T) {
	p := build(t, `
		var g;
		func set(v) { g = v; return 0; }
		func main() {
			g = 1;
			set(3);
			if (g == 3) { print(1); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "g", pred.Eq, 3), inter())
	// set assigns g from its formal v, which substitutes to the constant
	// argument 3 at the call site: fully correlated TRUE.
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
}

// TestBrokenCallSiteResolvesUndef breaks the call-site normal form of the
// call-site exit a query must cross and checks that the analysis resolves
// the query UNDEF instead of panicking or following a wrong link.
func TestBrokenCallSiteResolvesUndef(t *testing.T) {
	const src = `
		var g;
		func set(v) { g = v; return 0; }
		func main() {
			g = 1;
			set(5);
			set(3);
			if (g == 3) { print(1); }
		}
	`
	cases := []struct {
		name   string
		mutate func(p *ir.Program, first, last *ir.Node)
		want   AnswerSet
	}{
		{"intact", func(p *ir.Program, first, last *ir.Node) {}, AnsTrue},
		{"second call pred", func(p *ir.Program, first, last *ir.Node) {
			p.AddEdge(first.ID, p.CallExitSuccs(last)[0].ID)
		}, AnsUndef},
		{"exit edge removed", func(p *ir.Program, first, last *ir.Node) {
			ce := p.CallExitSuccs(last)[0]
			_, exit := p.CallSite(ce)
			p.RemoveEdge(exit, ce.ID)
		}, AnsUndef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(t, src)
			var calls []*ir.Node
			p.LiveNodes(func(n *ir.Node) {
				if n.Kind == ir.NCall {
					calls = append(calls, n)
				}
			})
			if len(calls) != 2 {
				t.Fatalf("calls = %d, want 2", len(calls))
			}
			tc.mutate(p, calls[0], calls[1])
			res := analyze(t, p, findBranch(t, p, "g", pred.Eq, 3), inter())
			if got := res.RootAnswers(); got != tc.want {
				t.Errorf("root answers = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestParameterCorrelationPerCallSite(t *testing.T) {
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
	res := analyze(t, p, findBranch(t, p, "flag", pred.Eq, 0), inter())
	// One call site passes 0 (TRUE), the other 1 (FALSE): full correlation
	// once entry splitting separates the call sites.
	if got := res.RootAnswers(); got != AnsTrue|AnsFalse {
		t.Errorf("root answers = %v, want {T,F}", got)
	}
}

func TestRecursionTerminates(t *testing.T) {
	p := build(t, `
		func fact(n) {
			if (n <= 1) { return 1; }
			return n * fact(n - 1);
		}
		func main() { print(fact(5)); }
	`)
	res := analyze(t, p, findBranch(t, p, "n", pred.Le, 1), inter())
	if res.PairsProcessed == 0 {
		t.Error("no work done")
	}
	// n is unknown through the recursive call site and multiplication.
	if got := res.RootAnswers(); got&AnsUndef == 0 && got&(AnsTrue|AnsFalse) == 0 {
		t.Errorf("unexpected root answers %v", got)
	}
}

func TestTerminationLimit(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 0;
			var i = input();
			while (i > 0) {
				x = x + 0;
				i = i - 1;
			}
			if (x == 0) { print(1); }
		}
	`)
	opts := inter()
	opts.TerminationLimit = 2
	res := analyze(t, p, findBranch(t, p, "x", pred.Eq, 0), opts)
	if !res.Truncated {
		t.Error("expected truncation")
	}
	if res.PairsProcessed > 2 {
		t.Errorf("processed %d pairs, limit 2", res.PairsProcessed)
	}
	if got := res.RootAnswers(); got&AnsUndef == 0 {
		t.Errorf("truncated analysis must include UNDEF, got %v", got)
	}
}

func TestArithSubstitution(t *testing.T) {
	src := `
		func main() {
			var y = 2;
			var x = y + 5;
			if (x == 7) { print(1); }
		}
	`
	p := build(t, src)
	b := findBranch(t, p, "x", pred.Eq, 7)
	// Without the extension, the binop resolves UNDEF.
	res := analyze(t, p, b, inter())
	if got := res.RootAnswers(); got != AnsUndef {
		t.Errorf("base root answers = %v, want {U}", got)
	}
	// With it, the query shifts through the addition.
	opts := inter()
	opts.ArithSubst = true
	res2 := analyze(t, p, b, opts)
	if got := res2.RootAnswers(); got != AnsTrue {
		t.Errorf("arith root answers = %v, want {T}", got)
	}
}

func TestArithSubstitutionSubAndNeg(t *testing.T) {
	p := build(t, `
		func main() {
			var y = 9;
			var a = y - 4;
			var b = -y;
			var c = 10 - y;
			if (a == 5) { print(1); }
			if (b == -9) { print(2); }
			if (c == 1) { print(3); }
		}
	`)
	opts := inter()
	opts.ArithSubst = true
	for _, tc := range []struct {
		v string
		c int64
	}{{"a", 5}, {"b", -9}, {"c", 1}} {
		res := analyze(t, p, findBranch(t, p, tc.v, pred.Eq, tc.c), opts)
		if got := res.RootAnswers(); got != AnsTrue {
			t.Errorf("%s: root answers = %v, want {T}", tc.v, got)
		}
	}
}

func TestUnanalyzableBranchReturnsNil(t *testing.T) {
	p := build(t, `
		func main() {
			var x = input();
			var y = input();
			if (x == y) { print(1); }
		}
	`)
	var br *ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch {
			br = n
		}
	})
	if res := New(p, inter()).AnalyzeBranch(br.ID); res != nil {
		t.Error("expected nil result for var-var branch")
	}
}

func TestStoreDoesNotKillVariableQueries(t *testing.T) {
	p := build(t, `
		func main() {
			var x = 3;
			var p = alloc(1);
			p[0] = 99;
			if (x == 3) { print(p[0]); }
		}
	`)
	res := analyze(t, p, findBranch(t, p, "x", pred.Eq, 3), inter())
	if got := res.RootAnswers(); got != AnsTrue {
		t.Errorf("root answers = %v, want {T}", got)
	}
}

func TestDuplicationEstimateAndBenefit(t *testing.T) {
	src := `
		func main() {
			var x = 0;
			if (input() > 0) { x = input(); }
			if (x == 0) { print(1); }
		}
	`
	p := build(t, src)
	b := findBranch(t, p, "x", pred.Eq, 0)
	res := analyze(t, p, b, inter())
	if est := res.DuplicationEstimate(p); est <= 0 {
		t.Errorf("duplication estimate = %d, want > 0 (paths must be separated)", est)
	}
	run, err := interp.Run(p, interp.Options{Input: []int64{5, 7}, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if ben := res.EstimatedBenefit(run.ExecCount); ben <= 0 {
		t.Errorf("estimated benefit = %d, want > 0", ben)
	}
	if res.ApproxBytes() <= 0 {
		t.Error("ApproxBytes should be positive")
	}
}

func TestAnswerSetHelpers(t *testing.T) {
	s := AnsTrue | AnsUndef
	if !s.Has(AnsTrue) || s.Has(AnsFalse) || s.Count() != 2 {
		t.Errorf("AnswerSet ops wrong for %v", s)
	}
	if s.String() != "{T,U}" {
		t.Errorf("String = %q", s.String())
	}
	if (AnswerSet(0)).String() != "{}" {
		t.Error("empty set string")
	}
	all := AnsTrue | AnsFalse | AnsUndef | AnsTrans
	if all.String() != "{T,F,U,Tr}" || all.Count() != 4 {
		t.Errorf("all-answer string = %q", all.String())
	}
}

func TestFgetcStyleFullElimination(t *testing.T) {
	// A compact version of the paper's Figure 1: fgetc returns either the
	// EOF sentinel -1 (when the buffer refill fails) or a byte in [0,255];
	// the caller's EOF test is correlated along both return paths.
	p := build(t, `
		var cnt;
		var buf;
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
			buf = alloc(16);
			var c = fgetc();
			while (c != -1) {
				print(c);
				c = fgetc();
			}
		}
	`)
	b := findBranch(t, p, "c", pred.Ne, -1)
	res := analyze(t, p, b, inter())
	// Both return paths of fgetc are correlated: -1 (FALSE for c != -1)
	// and byte (TRUE). Full correlation — PO can be eliminated entirely.
	if got := res.RootAnswers(); got != AnsTrue|AnsFalse {
		t.Errorf("root answers = %v, want {T,F}\n%s", got, p.Dump())
	}
	if !res.FullCorrelation() {
		t.Error("expected full correlation for the fgetc EOF test")
	}
	// The intraprocedural baseline sees only UNDEF.
	resIntra := analyze(t, p, b, intra())
	if resIntra.HasCorrelation() {
		t.Error("intra baseline should find no correlation here")
	}
}

func TestAnswerCache(t *testing.T) {
	// Two conditionals share most of their backward region (the second
	// reaches the call through the outer test's false arm, bypassing the
	// first conditional's asserts); with caching, the second analysis
	// answers the shared pairs from the cache.
	src := `
		func get() {
			if (input() > 0) { return 0; }
			return 7;
		}
		func main() {
			var r = get();
			if (input() > 5) {
				if (r == 0) { print(1); }
			}
			if (r == 0) { print(2); }
		}
	`
	p := build(t, src)
	var bs []*ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && strings.HasSuffix(p.VarName(n.CondVar()), "r") {
			bs = append(bs, n)
		}
	})
	if len(bs) != 2 {
		t.Fatalf("want 2 caller branches, got %d", len(bs))
	}

	opts := inter()
	opts.CacheAnswers = true
	an := New(p, opts)
	res1 := an.AnalyzeBranch(bs[0].ID)
	if res1.CacheHits != 0 {
		t.Errorf("first analysis had %d cache hits", res1.CacheHits)
	}
	if an.CacheBytes() <= 0 {
		t.Error("cache empty after first analysis")
	}
	res2 := an.AnalyzeBranch(bs[1].ID)
	if res2.CacheHits == 0 {
		t.Error("second analysis did not hit the cache")
	}
	if res2.PairsProcessed >= res1.PairsProcessed {
		t.Errorf("cache did not reduce work: %d vs %d", res2.PairsProcessed, res1.PairsProcessed)
	}
	// Answers must agree with an uncached analyzer.
	plain := New(p, inter()).AnalyzeBranch(bs[1].ID)
	if res2.RootAnswers() != plain.RootAnswers() {
		t.Errorf("cached answers %v != plain %v", res2.RootAnswers(), plain.RootAnswers())
	}
}

// cacheEquivSrc has many conditionals sharing backward regions, so the
// cross-conditional cache actually fires.
const cacheEquivSrc = `
	func get() {
		if (input() > 0) { return 0; }
		if (input() > 3) { return 1; }
		return 7;
	}
	func check(v) {
		if (v == 0) { return 1; }
		return 0;
	}
	func main() {
		var r = get();
		if (input() > 5) {
			if (r == 0) { print(1); }
		}
		if (r == 0) { print(2); }
		if (r == 7) { print(3); }
		var s = check(r);
		if (s == 1) { print(4); }
		var u = get();
		if (u == 0) { print(5); }
		if (u == 7) { print(6); }
	}
`

// allAnalyzable returns every analyzable branch in node order.
func allAnalyzable(p *ir.Program) []*ir.Node {
	var out []*ir.Node
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && n.Analyzable() {
			out = append(out, n)
		}
	})
	return out
}

// TestAnswerCacheAnswerEquivalence analyzes every conditional of a program
// with one cache-enabled analyzer and compares the root answer set of each
// against a fresh uncached analyzer: the cache is a pure time/memory
// tradeoff and must never change an answer.
func TestAnswerCacheAnswerEquivalence(t *testing.T) {
	p := build(t, cacheEquivSrc)
	bs := allAnalyzable(p)
	if len(bs) < 8 {
		t.Fatalf("want >= 8 analyzable branches, got %d", len(bs))
	}
	opts := inter()
	opts.CacheAnswers = true
	cached := New(p, opts)
	hits := 0
	for _, b := range bs {
		cres := cached.AnalyzeBranch(b.ID)
		plain := New(p, inter()).AnalyzeBranch(b.ID)
		if cres == nil || plain == nil {
			t.Fatalf("branch %d: nil result", b.ID)
		}
		if cres.RootAnswers() != plain.RootAnswers() {
			t.Errorf("branch %d (line %d): cached answers %v != plain %v",
				b.ID, b.Line, cres.RootAnswers(), plain.RootAnswers())
		}
		hits += cres.CacheHits
	}
	if hits == 0 {
		t.Error("cache never hit; the equivalence test exercised nothing")
	}
}

// TestAnalyzerConcurrentUse exercises concurrent AnalyzeBranch calls on one
// shared analyzer — with the answer cache enabled, so the mutex-guarded
// cache is hit from multiple goroutines (load-bearing under -race) — and
// checks every result against a serial uncached baseline.
func TestAnalyzerConcurrentUse(t *testing.T) {
	p := build(t, cacheEquivSrc)
	bs := allAnalyzable(p)
	want := make(map[ir.NodeID]AnswerSet, len(bs))
	for _, b := range bs {
		want[b.ID] = analyze(t, p, b, inter()).RootAnswers()
	}
	for _, cacheOn := range []bool{false, true} {
		opts := inter()
		opts.CacheAnswers = cacheOn
		shared := New(p, opts)
		const rounds = 4
		got := make([]AnswerSet, rounds*len(bs))
		var wg sync.WaitGroup
		for g := 0; g < rounds; g++ {
			for i, b := range bs {
				wg.Add(1)
				go func(slot int, id ir.NodeID) {
					defer wg.Done()
					got[slot] = shared.AnalyzeBranch(id).RootAnswers()
				}(g*len(bs)+i, b.ID)
			}
		}
		wg.Wait()
		for g := 0; g < rounds; g++ {
			for i, b := range bs {
				if a := got[g*len(bs)+i]; a != want[b.ID] {
					t.Errorf("cache=%v branch %d: concurrent answers %v != serial %v",
						cacheOn, b.ID, a, want[b.ID])
				}
			}
		}
	}
}
