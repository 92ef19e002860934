package restructure

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"icbe/internal/interp"
	"icbe/internal/ir"
)

// safetySrc has three independently optimizable conditionals (each variable
// is constant-initialized, so every branch is fully correlated) plus a
// trailing print so shadow execution has output to compare.
const safetySrc = `
var g = 7;

func main() {
	var a = 0;
	var b = 1;
	var c = 2;
	if (a == 0) { print(10); }
	if (b == 1) { print(20); }
	if (c == 2) { print(30); }
	print(a + b + c + g);
}
`

func buildSafety(t *testing.T) *ir.Program {
	t.Helper()
	p, err := ir.Build(safetySrc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// setHooks installs the fault-injection hooks and restores them when the
// test ends. The hooks are package globals, so tests using them must not run
// in parallel (they don't: no t.Parallel in this file).
func setHooks(t *testing.T, analyze func(*ir.Program, ir.NodeID), afterApply func(*ir.Program, ir.NodeID) error) {
	t.Helper()
	testHookAnalyze = analyze
	testHookAfterApply = afterApply
	t.Cleanup(func() {
		testHookAnalyze = nil
		testHookAfterApply = nil
	})
}

// baselineOptimized is the number of conditionals the driver applies on
// safetySrc with no faults injected.
func baselineOptimized(t *testing.T) int {
	t.Helper()
	res := Optimize(buildSafety(t), DriverOptions{})
	if res.Optimized == 0 {
		t.Fatalf("baseline run optimized nothing; test program is broken")
	}
	return res.Optimized
}

func countKind(res *DriverResult, k FailureKind) int {
	n := 0
	for _, r := range res.Reports {
		if r.Failure != nil && r.Failure.Kind == k {
			n++
		}
	}
	if n != res.Stats.Failures[k.String()] {
		return -1 // report/stats disagreement; caller fails with both values
	}
	return n
}

// TestInjectedValidateFailureRollsBackAll injects a validation failure into
// every apply attempt and checks the driver completes, categorizes each
// failure, and leaves the program byte-identical to the input.
func TestInjectedValidateFailureRollsBackAll(t *testing.T) {
	p := buildSafety(t)
	want := ir.Clone(p).Dump()
	injected := errors.New("injected gate failure")
	setHooks(t, nil, func(*ir.Program, ir.NodeID) error { return injected })

	res := Optimize(p, DriverOptions{})
	if res.Optimized != 0 {
		t.Fatalf("Optimized = %d, want 0 when every apply fails its gate", res.Optimized)
	}
	if got := res.Program.Dump(); got != want {
		t.Fatalf("program not rolled back to input:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if n := countKind(res, FailValidate); n != 3 {
		t.Fatalf("validate failures = %d (stats %v), want 3", n, res.Stats.Failures)
	}
	for _, r := range res.Reports {
		if r.Failure == nil {
			continue
		}
		if r.Applied {
			t.Fatalf("conditional line %d both failed and applied", r.Line)
		}
		if !errors.Is(r.Err, injected) {
			t.Fatalf("report Err does not unwrap to the injected error: %v", r.Err)
		}
	}
}

// TestFailureIsolatedToOneBranch fails only the first apply attempt and
// checks the remaining conditionals still optimize.
func TestFailureIsolatedToOneBranch(t *testing.T) {
	base := baselineOptimized(t)
	calls := 0
	setHooks(t, nil, func(*ir.Program, ir.NodeID) error {
		calls++
		if calls == 1 {
			return errors.New("first apply rejected")
		}
		return nil
	})

	res := Optimize(buildSafety(t), DriverOptions{})
	if res.Optimized != base-1 {
		t.Fatalf("Optimized = %d, want %d (baseline %d minus the one failed branch)",
			res.Optimized, base-1, base)
	}
	if n := countKind(res, FailValidate); n != 1 {
		t.Fatalf("validate failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	if err := ir.Validate(res.Program); err != nil {
		t.Fatalf("result program invalid: %v", err)
	}
}

// TestApplyPanicContained panics inside the apply path and checks the driver
// converts it into a FailPanic report with a stack, rolls the branch back,
// and still optimizes the others.
func TestApplyPanicContained(t *testing.T) {
	base := baselineOptimized(t)
	calls := 0
	setHooks(t, nil, func(*ir.Program, ir.NodeID) error {
		calls++
		if calls == 1 {
			panic("injected apply panic")
		}
		return nil
	})

	res := Optimize(buildSafety(t), DriverOptions{})
	if res.Optimized != base-1 {
		t.Fatalf("Optimized = %d, want %d", res.Optimized, base-1)
	}
	if n := countKind(res, FailPanic); n != 1 {
		t.Fatalf("panic failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	for _, r := range res.Reports {
		if r.Failure == nil {
			continue
		}
		if r.Failure.Kind != FailPanic {
			t.Fatalf("failure kind = %v, want panic", r.Failure.Kind)
		}
		if !strings.Contains(r.Failure.Msg, "injected apply panic") {
			t.Fatalf("failure message lost the panic value: %q", r.Failure.Msg)
		}
		if r.Failure.Stack == "" {
			t.Fatalf("panic failure carries no stack")
		}
	}
	if err := ir.Validate(res.Program); err != nil {
		t.Fatalf("result program invalid after contained panic: %v", err)
	}
}

// TestAnalysisPanicContained panics inside one branch's analysis (on worker
// goroutines too) and checks the other branches are unaffected.
func TestAnalysisPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := buildSafety(t)
		var target ir.NodeID = -1
		p.LiveNodes(func(n *ir.Node) {
			if n.Kind == ir.NBranch && target < 0 {
				target = n.ID
			}
		})
		if target < 0 {
			t.Fatal("no branch found")
		}
		setHooks(t, func(_ *ir.Program, b ir.NodeID) {
			if b == target {
				panic("injected analysis panic")
			}
		}, nil)

		res := Optimize(p, DriverOptions{Workers: workers})
		if n := countKind(res, FailPanic); n != 1 {
			t.Fatalf("workers=%d: panic failures = %d (stats %v), want 1",
				workers, n, res.Stats.Failures)
		}
		if res.Optimized != 2 {
			t.Fatalf("workers=%d: Optimized = %d, want 2 (branches not hit by the panic)",
				workers, res.Optimized)
		}
		testHookAnalyze = nil
	}
}

// TestStructuralCorruptionCaughtByValidate makes the hook corrupt the
// scratch graph (dangling successor edge) without returning an error; the
// ir.Validate gate must catch it and roll back.
func TestStructuralCorruptionCaughtByValidate(t *testing.T) {
	p := buildSafety(t)
	want := ir.Clone(p).Dump()
	calls := 0
	setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
		calls++
		if calls > 1 {
			return nil
		}
		// Break edge symmetry: retarget a successor without fixing preds.
		for i := range scratch.NumNodes() {
			n := scratch.Node(ir.NodeID(i))
			if n != nil && n.Kind == ir.NAssign && len(n.Succs) == 1 {
				m := scratch.Mut(n.ID)
				m.Succs[0] = m.ID // self-loop the assign; preds now dangle
				return nil
			}
		}
		return nil
	})

	res := Optimize(p, DriverOptions{})
	if n := countKind(res, FailValidate); n != 1 {
		t.Fatalf("validate failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	if res.Optimized != 2 {
		t.Fatalf("Optimized = %d, want 2", res.Optimized)
	}
	// The failing branch's attempt must not have leaked into the result.
	if err := ir.Validate(res.Program); err != nil {
		t.Fatalf("corruption leaked into the adopted program: %v", err)
	}
	_ = want
}

// TestDiffMismatchRollsBack mutates program semantics (a printed constant)
// on a structurally valid scratch clone; only the differential shadow oracle
// can catch it.
func TestDiffMismatchRollsBack(t *testing.T) {
	calls := 0
	setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
		calls++
		if calls > 1 {
			return nil
		}
		for i := range scratch.NumNodes() {
			n := scratch.Node(ir.NodeID(i))
			if n != nil && n.Kind == ir.NPrint && n.Val().IsConst {
				v := n.Val()
				v.Const += 1000 // wrong output, still a valid graph
				scratch.Mut(n.ID).SetVal(v)
				return nil
			}
		}
		return nil
	})

	res := Optimize(buildSafety(t), DriverOptions{Verify: true})
	if n := countKind(res, FailDiffMismatch); n != 1 {
		t.Fatalf("diff-mismatch failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	if res.Optimized != 2 {
		t.Fatalf("Optimized = %d, want 2", res.Optimized)
	}
	if res.Stats.VerifyRuns == 0 {
		t.Fatalf("oracle reported a mismatch but VerifyRuns = 0")
	}
	// The semantic corruption was rolled back: the result still prints the
	// original values.
	got, err := interp.Run(res.Program, interp.Options{MaxSteps: 1 << 20})
	if err != nil {
		t.Fatalf("result program faults: %v", err)
	}
	orig, err := interp.Run(buildSafety(t), interp.Options{MaxSteps: 1 << 20})
	if err != nil {
		t.Fatalf("input program faults: %v", err)
	}
	if len(got.Output) != len(orig.Output) {
		t.Fatalf("output length changed: %v vs %v", got.Output, orig.Output)
	}
	for i := range got.Output {
		if got.Output[i] != orig.Output[i] {
			t.Fatalf("output changed at %d: %v vs %v", i, got.Output, orig.Output)
		}
	}
}

// TestOpGrowthRollsBack splices an extra operation node (g := g, output-
// neutral and structurally valid) into the scratch clone; the shadow oracle
// must reject it for violating the never-more-operations guarantee.
func TestOpGrowthRollsBack(t *testing.T) {
	p := buildSafety(t)
	var g ir.VarID = -1
	for _, v := range p.Vars {
		if v.Name == "g" && v.IsGlobal() {
			g = v.ID
		}
	}
	if g < 0 {
		t.Fatal("global g not found")
	}
	calls := 0
	setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
		calls++
		if calls > 1 {
			return nil
		}
		// Insert a chain of `g := g` nodes after main's entry: output
		// identical, several more executed operations on every path — more
		// than the one branch execution the elimination itself saves, so
		// net executed operations must grow.
		main := scratch.Procs[scratch.MainProc]
		entry := scratch.Mut(main.Entries[0])
		succ := entry.Succs[0]
		prev := entry
		for i := 0; i < 4; i++ {
			n := scratch.NewNode(ir.NAssign, entry.Proc)
			n.Dst = g
			n.SetRHS(ir.RHS{Kind: ir.RCopy, Src: g})
			n.Line = entry.Line
			n.Preds = []ir.NodeID{prev.ID}
			prev.Succs[0] = n.ID
			n.Succs = []ir.NodeID{succ}
			prev = n
		}
		sn := scratch.Mut(succ)
		for i, pr := range sn.Preds {
			if pr == entry.ID {
				sn.Preds[i] = prev.ID
				break
			}
		}
		return nil
	})

	res := Optimize(p, DriverOptions{Verify: true})
	if n := countKind(res, FailOpGrowth); n != 1 {
		t.Fatalf("op-growth failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	if res.Optimized != 2 {
		t.Fatalf("Optimized = %d, want 2", res.Optimized)
	}
}

// TestDriverTimeoutSkipsQueue runs with an already-expired deadline: every
// conditional must be reported Skipped with a timeout failure and the
// program returned unchanged.
func TestDriverTimeoutSkipsQueue(t *testing.T) {
	p := buildSafety(t)
	want := ir.Clone(p).Dump()
	res := Optimize(p, DriverOptions{Timeout: time.Nanosecond})
	if res.Optimized != 0 {
		t.Fatalf("Optimized = %d under an expired deadline, want 0", res.Optimized)
	}
	if !res.Truncated {
		t.Fatalf("Truncated not set on deadline expiry")
	}
	if got := res.Program.Dump(); got != want {
		t.Fatalf("deadline-expired run mutated the program")
	}
	if len(res.Reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(res.Reports))
	}
	for _, r := range res.Reports {
		if !r.Skipped {
			t.Fatalf("line %d not marked Skipped", r.Line)
		}
		if r.Failure == nil || r.Failure.Kind != FailTimeout {
			t.Fatalf("line %d missing timeout failure: %+v", r.Line, r.Failure)
		}
	}
	if n := res.Stats.Failures[FailTimeout.String()]; n != 3 {
		t.Fatalf("timeout failures in stats = %d, want 3", n)
	}
}

// TestCanceledContextSkipsQueue checks an externally canceled Ctx behaves
// like an expired deadline.
func TestCanceledContextSkipsQueue(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Optimize(buildSafety(t), DriverOptions{Ctx: ctx})
	if res.Optimized != 0 || !res.Truncated {
		t.Fatalf("canceled ctx: Optimized = %d, Truncated = %v; want 0, true",
			res.Optimized, res.Truncated)
	}
	if n := res.Stats.Failures[FailTimeout.String()]; n != 3 {
		t.Fatalf("timeout failures = %d, want 3", n)
	}
}

// TestBranchTimeoutInterruptsAnalysis gives each conditional an already-
// expired per-branch analysis deadline: analysis is interrupted at its first
// poll, the conditional is reported with a timeout failure (not Skipped — it
// was dequeued), and nothing is applied.
func TestBranchTimeoutInterruptsAnalysis(t *testing.T) {
	p := buildSafety(t)
	want := ir.Clone(p).Dump()
	res := Optimize(p, DriverOptions{BranchTimeout: time.Nanosecond})
	if res.Optimized != 0 {
		t.Fatalf("Optimized = %d with expired branch deadlines, want 0", res.Optimized)
	}
	if got := res.Program.Dump(); got != want {
		t.Fatalf("branch-timeout run mutated the program")
	}
	if n := countKind(res, FailTimeout); n != 3 {
		t.Fatalf("timeout failures = %d (stats %v), want 3", n, res.Stats.Failures)
	}
	for _, r := range res.Reports {
		if r.Skipped {
			t.Fatalf("line %d marked Skipped; branch-deadline victims are analyzed, not skipped", r.Line)
		}
	}
}

// TestVerifyCleanRun checks the oracle passes legitimate restructurings
// through: with Verify on and no injected faults, the driver optimizes
// exactly what it optimizes without verification.
func TestVerifyCleanRun(t *testing.T) {
	base := baselineOptimized(t)
	res := Optimize(buildSafety(t), DriverOptions{
		Verify:       true,
		VerifyInputs: [][]int64{{5, 6, 7}},
	})
	if res.Optimized != base {
		t.Fatalf("Verify changed the outcome: Optimized = %d, want %d", res.Optimized, base)
	}
	if len(res.Stats.Failures) != 0 {
		t.Fatalf("clean run reported failures: %v", res.Stats.Failures)
	}
	if res.Stats.VerifyRuns == 0 {
		t.Fatalf("Verify on but no shadow runs recorded")
	}
	if res.Stats.VerifyWall <= 0 {
		t.Fatalf("VerifyWall not recorded")
	}
}

// TestFailureKindStrings pins the report vocabulary the CLI and the public
// API surface.
func TestFailureKindStrings(t *testing.T) {
	want := map[FailureKind]string{
		FailPanic:        "panic",
		FailValidate:     "validate",
		FailDiffMismatch: "diff-mismatch",
		FailOpGrowth:     "op-growth",
		FailTimeout:      "timeout",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FailureKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := FailureKind(99).String(); got != "FailureKind(99)" {
		t.Errorf("unknown kind stringifies as %q", got)
	}
}
