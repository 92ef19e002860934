package server

import (
	"errors"
	"slices"
	"testing"
	"time"

	"icbe"
	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/restructure"
)

// TestEveryServedOptimizationIsChecked forces each failure kind the fault
// hooks can reach and sends the faulted program repeatedly. Every response
// must be either the full tier with the unoptimized program's output — the
// oracle that fired is still on, so the kind is counted on every repeat — or
// passthrough; never an optimization some oracle did not check. The kinds
// come from restructure.AllFailureKinds, so a kind added there fails this
// test until it has a case here (or a skip saying why no hook can force it).
func TestEveryServedOptimizationIsChecked(t *testing.T) {
	ref, err := icbe.Compile(okSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	type faultCase struct {
		inject     restructure.FaultInjection
		deadlineMS int64
		tier       string
		skip       string
	}
	cases := map[string]faultCase{
		"panic": {
			inject: restructure.FaultInjection{
				Analyze: func(*ir.Program, ir.NodeID) { panic("injected analysis panic") },
			},
			tier: "full",
		},
		"validate": {
			inject: restructure.FaultInjection{
				AfterApply: func(*ir.Program, ir.NodeID) error { return errors.New("injected gate failure") },
			},
			tier: "full",
		},
		"diff-mismatch": {
			inject: restructure.FaultInjection{
				// Mutate a printed constant on the scratch fork: valid
				// graph, wrong output — only the shadow oracle catches it.
				AfterApply: func(scratch *ir.Program, _ ir.NodeID) error {
					for i := range scratch.NumNodes() {
						n := scratch.Node(ir.NodeID(i))
						if n != nil && n.Kind == ir.NPrint && n.Val().IsConst {
							v := n.Val()
							v.Const += 1000
							scratch.Mut(n.ID).SetVal(v)
							return nil
						}
					}
					return nil
				},
			},
			tier: "full",
		},
		"op-growth": {
			inject: restructure.FaultInjection{
				// Splice an output-neutral g := g chain after main's entry:
				// more executed operations on every path.
				AfterApply: func(scratch *ir.Program, _ ir.NodeID) error {
					var g ir.VarID = -1
					for _, v := range scratch.Vars {
						if v.Name == "g" && v.IsGlobal() {
							g = v.ID
						}
					}
					if g < 0 {
						return nil
					}
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
				},
			},
			tier: "full",
		},
		"timeout": {
			// Every analysis stalls past the request deadline: the full
			// attempt times out and passthrough still answers in time.
			inject: restructure.FaultInjection{
				Analyze: func(*ir.Program, ir.NodeID) { time.Sleep(40 * time.Millisecond) },
			},
			deadlineMS: 50,
			tier:       "passthrough",
		},
		"check": {
			inject: restructure.FaultInjection{
				// Flip every decided answer the cross-check sees: the SCCP
				// oracle disagrees on every conditional and refuses it.
				CheckAnswers: func(_ *ir.Program, _ ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet {
					switch ans {
					case analysis.AnsTrue:
						return analysis.AnsFalse
					case analysis.AnsFalse:
						return analysis.AnsTrue
					}
					return ans
				},
			},
			tier: "full",
		},
		"fold": {
			skip: "no hook reaches the fold pass: Analyze and AfterApply run on correlation analyses and applies, CheckAnswers on the cross-check",
		},
	}

	for _, k := range restructure.AllFailureKinds() {
		kind := k.String()
		t.Run(kind, func(t *testing.T) {
			tc, ok := cases[kind]
			if !ok {
				t.Fatalf("failure kind %q has no case: add one, or a skip naming why no hook can force it", kind)
			}
			if tc.skip != "" {
				t.Skip(tc.skip)
			}
			setFaults(t, tc.inject)
			_, ts := newTestService(t, Config{})

			for i := 0; i < 6; i++ {
				resp := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true, Run: true, DeadlineMS: tc.deadlineMS})
				if resp.Tier != tc.tier {
					t.Fatalf("repeat %d: tier = %q, want %q (attempts %+v)", i, resp.Tier, tc.tier, resp.Attempts)
				}
				if resp.Degraded != (resp.Tier == "passthrough") {
					t.Fatalf("repeat %d: tier %q but degraded=%v", i, resp.Tier, resp.Degraded)
				}
				if !slices.Equal(resp.Output, want.Output) {
					t.Fatalf("repeat %d: served output %v, want %v", i, resp.Output, want.Output)
				}
				// The oracle that fired is still on: its kind is counted on
				// the full-tier attempt of every repeat.
				first := resp.Attempts[0]
				if first.Tier != "full" || first.Failures[kind] == 0 {
					t.Fatalf("repeat %d: first attempt %+v, want full with %s > 0", i, first, kind)
				}
				switch resp.Tier {
				case "full":
					if len(resp.Attempts) != 1 || first.Outcome != "ok" {
						t.Fatalf("repeat %d: attempts %+v, want one full/ok", i, resp.Attempts)
					}
				case "passthrough":
					if resp.Report != nil {
						t.Fatalf("repeat %d: passthrough carried a report: %+v", i, resp.Report)
					}
					last := resp.Attempts[len(resp.Attempts)-1]
					if len(resp.Attempts) != 2 || first.Outcome != kind || last.Tier != "passthrough" || last.Outcome != "ok" {
						t.Fatalf("repeat %d: attempts %+v, want [full/%s, passthrough/ok]", i, resp.Attempts, kind)
					}
				}
			}
		})
	}
}
