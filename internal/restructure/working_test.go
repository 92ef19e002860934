package restructure

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/interp"
	"icbe/internal/ir"
)

// sameRun reports why a carried shadow run differs from a fresh one, or ""
// when output, operations, steps and error agree.
func sameRun(carried *shadowRun, res *interp.Result, err error) string {
	switch {
	case !slices.Equal(carried.res.Output, res.Output):
		return "output"
	case carried.res.Operations != res.Operations:
		return "operations"
	case carried.res.Steps != res.Steps:
		return "steps"
	case (carried.err == nil) != (err == nil),
		errors.Is(carried.err, interp.ErrStepLimit) != errors.Is(err, interp.ErrStepLimit),
		err != nil && carried.err.Error() != err.Error():
		return "error"
	}
	return ""
}

// TestCarriedFactsMatchFresh checks the hand-over on every attempt. On every
// adopted apply and fold, the carried report must equal a fresh analysis of
// the adopted program and every carried shadow run a fresh run of it under
// verifyMaxSteps. On every attempt, a fact the working state knew before
// must still be the same object: rollbacks and declines drop the fork's
// facts and leave the working ones alone.
func TestCarriedFactsMatchFresh(t *testing.T) {
	optSets := map[string]DriverOptions{
		"all":          {Verify: true, Check: true, Fold: true},
		"fold":         {Fold: true},
		"verify":       {Verify: true},
		"check+verify": {Check: true, Verify: true},
	}
	for set, opts := range optSets {
		t.Run(set, func(t *testing.T) {
			var known facts
			reps, runs := 0, 0
			setSettleHook(t, func(w *working, scratch *ir.Program, carried *facts) {
				if known.rep != nil && w.rep != known.rep {
					t.Errorf("an attempt replaced the working report")
				}
				for i, r := range known.runs {
					if r != nil && w.runs[i] != r {
						t.Errorf("an attempt replaced the working run on input %v", w.inputs[i])
					}
				}
				if carried == nil {
					known = w.facts
					return
				}
				known = *carried
				if carried.rep != nil {
					reps++
					fresh := check.AnalyzeInvariants(scratch)
					if !reflect.DeepEqual(carried.rep.PerPass, fresh.PerPass) ||
						!reflect.DeepEqual(carried.rep.Findings, fresh.Findings) {
						t.Errorf("carried report %v differs from a fresh one %v", carried.rep.PerPass, fresh.PerPass)
					}
					scratch.LiveNodes(func(n *ir.Node) {
						if n.Kind == ir.NBranch && n.Analyzable() &&
							carried.rep.SCCP.BranchOutcome(n.ID) != fresh.SCCP.BranchOutcome(n.ID) {
							t.Errorf("carried oracle decides branch %d differently", n.ID)
						}
					})
				}
				for i, r := range carried.runs {
					if r == nil {
						continue
					}
					runs++
					res, err := interp.Run(scratch, interp.Options{Input: w.inputs[i], MaxSteps: verifyMaxSteps})
					if d := sameRun(r, res, err); d != "" {
						t.Errorf("carried run on input %v differs from a fresh one in %s", w.inputs[i], d)
					}
				}
			})
			for name, src := range forkCorpus() {
				if strings.HasPrefix(name, "scale-") {
					continue
				}
				p, err := ir.Build(src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				known = facts{}
				o := opts
				o.Analysis = analysis.DefaultOptions()
				Optimize(p, o)
			}
			if (opts.Check || opts.Fold) && reps == 0 {
				t.Error("no carried report was compared")
			}
			if runs == 0 {
				t.Error("no carried shadow run was compared")
			}
			t.Logf("%d carried reports and %d carried runs compared", reps, runs)
		})
	}
}

// loopSrc counts to its input, one loop iteration per unit.
const loopSrc = `func main() {
	var n = input();
	var i = 0;
	while (i < n) {
		i = i + 1;
	}
	print(i);
}`

// buildLoop builds loopSrc; padded puts a no-op on the loop's back edge,
// adding a step per iteration but no operation.
func buildLoop(t *testing.T, padded bool) *ir.Program {
	t.Helper()
	p, err := ir.Build(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !padded {
		return p
	}
	for i := range p.NumNodes() {
		n := p.Node(ir.NodeID(i))
		if n != nil && n.Kind == ir.NAssign && n.Line == 5 {
			nop := p.NewNode(ir.NNop, n.Proc)
			succ := n.Succs[0]
			p.RedirectSucc(n.ID, succ, nop.ID)
			p.AddEdge(nop.ID, succ)
			return p
		}
	}
	t.Fatal("loop body not found")
	return nil
}

func loopSteps(t *testing.T, p *ir.Program, in []int64) int64 {
	t.Helper()
	res, err := interp.Run(p, interp.Options{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	return res.Steps
}

// loopWorking hand-builds a shadow-only working state on prog whose runs
// are bounded by maxSteps.
func loopWorking(prog *ir.Program, in []int64, maxSteps int64) *working {
	return &working{prog: prog, inputs: [][]int64{in}, maxSteps: maxSteps, verify: true, stats: &DriverStats{}}
}

// TestCarryRuleDropsRunOverBudget: a fork run that completes under its
// own slack budget but takes more than maxSteps is not carried, and the
// next attempt runs that input fresh on the adopted program.
func TestCarryRuleDropsRunOverBudget(t *testing.T) {
	in := []int64{20}
	pre, post := buildLoop(t, false), buildLoop(t, true)
	preSteps, postSteps := loopSteps(t, pre, in), loopSteps(t, post, in)
	if postSteps <= preSteps {
		t.Fatalf("padding did not add steps: %d -> %d", preSteps, postSteps)
	}

	// Within the bound the fork's run is carried as the run the bound gives.
	w := loopWorking(pre, in, postSteps)
	carried, fail := w.verifyShadow(post)
	if fail != nil {
		t.Fatal(fail)
	}
	res, err := interp.Run(post, interp.Options{Input: in, MaxSteps: postSteps})
	if carried[0] == nil || sameRun(carried[0], res, err) != "" {
		t.Fatalf("run within the bound not carried as the fresh run: %+v", carried[0])
	}

	w = loopWorking(pre, in, preSteps)
	carried, fail = w.verifyShadow(post)
	if fail != nil {
		t.Fatal(fail)
	}
	if carried[0] != nil {
		t.Fatalf("run of %d steps carried past a %d-step bound", postSteps, preSteps)
	}
	w.adopt(post, &facts{runs: carried})
	if _, fail := w.verifyShadow(ir.Fork(post)); fail != nil {
		t.Fatal(fail)
	}
	if r := w.runs[0]; r == nil || !errors.Is(r.err, interp.ErrStepLimit) || r.res.Steps != preSteps+1 {
		t.Fatalf("next attempt did not run the input fresh under the bound: %+v", r)
	}
	if w.stats.VerifyRuns != 2 {
		t.Fatalf("VerifyRuns = %d, want one comparison per attempt", w.stats.VerifyRuns)
	}
}

// TestCarryRuleRerunsStepLimitedInput: an input the working program was too
// slow on has no fork run to carry; after adoption it is run on the
// adopted program, not assumed to be step-limited there too.
func TestCarryRuleRerunsStepLimitedInput(t *testing.T) {
	in := []int64{20}
	pre, post := buildLoop(t, true), buildLoop(t, false)
	w := loopWorking(pre, in, loopSteps(t, post, in))
	carried, fail := w.verifyShadow(post)
	if fail != nil {
		t.Fatal(fail)
	}
	if !errors.Is(w.runs[0].err, interp.ErrStepLimit) {
		t.Fatalf("working run = %v, want the step limit", w.runs[0].err)
	}
	if carried[0] != nil {
		t.Fatal("carried a run for an input the working program was too slow on")
	}
	w.adopt(post, &facts{runs: carried})
	r := w.shadowRuns()[0]
	if r.err != nil || !slices.Equal(r.res.Output, []int64{20}) {
		t.Fatalf("adopted program's run = %v %v, want a completed run printing 20", r.res.Output, r.err)
	}
}

// TestRolledBackAttemptKeepsWorkingFacts: an attempt that fails any shared
// gate leaves the working program, report and runs pointer-identical.
func TestRolledBackAttemptKeepsWorkingFacts(t *testing.T) {
	p, err := ir.Build(`func main() { var a = input(); if (a > 0) { print(1); } else { print(2); } }`)
	if err != nil {
		t.Fatal(err)
	}
	w := &working{prog: p, inputs: verifyInputs(DriverOptions{}), maxSteps: verifyMaxSteps,
		check: true, verify: true, stats: &DriverStats{}}
	rep, runs := w.report(), w.shadowRuns()
	breaks := map[FailureKind]func(s *ir.Program){
		FailValidate: func(s *ir.Program) {
			pr := s.Procs[s.MainProc]
			s.Mut(pr.Entries[0]).Succs = nil
		},
		FailCheck: func(s *ir.Program) {
			pr := s.Procs[s.MainProc]
			orphan := s.NewNode(ir.NNop, pr.Index)
			s.AddEdge(orphan.ID, pr.Exits[0])
		},
		FailDiffMismatch: func(s *ir.Program) {
			for i := range s.NumNodes() {
				n := s.Node(ir.NodeID(i))
				if n != nil && n.Kind == ir.NPrint {
					v := n.Val()
					v.Const += 1000
					s.Mut(n.ID).SetVal(v)
					return
				}
			}
		},
	}
	for kind, breakFork := range breaks {
		fork := ir.Fork(w.prog)
		breakFork(fork)
		f, fail := w.gate(fork, false)
		if fail == nil || fail.Kind != kind || f != nil {
			t.Fatalf("%v: gate = %v, %v", kind, f, fail)
		}
		if w.prog != p || w.rep != rep || &w.runs[0] != &runs[0] {
			t.Fatalf("%v: the failed attempt changed the working state", kind)
		}
	}
}
