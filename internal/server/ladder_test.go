package server

import (
	"errors"
	"testing"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/restructure"
)

// trippy returns a config whose breakers trip on the first failure and stay
// open until the fake clock is advanced past the cooldown.
func trippy(clock *fakeClock) Config {
	return Config{
		Breaker: BreakerConfig{
			Window:        time.Hour,
			TripThreshold: 1,
			Cooldown:      time.Minute,
			MaxCooldown:   time.Hour,
		},
		now: clock.Now,
	}
}

// TestLadderCheckRefusalDegradesWithinRequest forces a cross-check
// disagreement on every conditional: the full and check-only rungs refuse
// fatally, the no-oracles rung answers, and the response is labeled with the
// tier that produced it.
func TestLadderCheckRefusalDegradesWithinRequest(t *testing.T) {
	setFaults(t, restructure.FaultInjection{
		CheckAnswers: func(_ *ir.Program, _ ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet {
			switch ans {
			case analysis.AnsTrue:
				return analysis.AnsFalse
			case analysis.AnsFalse:
				return analysis.AnsTrue
			}
			return ans
		},
	})
	clock := newFakeClock()
	_, ts := newTestService(t, trippy(clock))

	resp := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
	if resp.Tier != "no-oracles" || !resp.Degraded {
		t.Fatalf("tier = %q degraded=%v, want no-oracles/true", resp.Tier, resp.Degraded)
	}
	wantAttempts := []struct{ tier, outcome string }{
		{"full", "error"}, {"check-only", "error"}, {"no-oracles", "ok"},
	}
	if len(resp.Attempts) != len(wantAttempts) {
		t.Fatalf("attempts = %+v, want %v", resp.Attempts, wantAttempts)
	}
	for i, w := range wantAttempts {
		if resp.Attempts[i].Tier != w.tier || resp.Attempts[i].Outcome != w.outcome {
			t.Fatalf("attempt %d = %+v, want %v", i, resp.Attempts[i], w)
		}
	}
	if resp.Report == nil || resp.Report.Optimized == 0 {
		t.Fatalf("degraded rung produced no result: %+v", resp.Report)
	}

	// The check breaker tripped and pins subsequent requests at no-oracles
	// directly — one attempt, no wasted oracle runs.
	resp2 := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
	if resp2.Tier != "no-oracles" || len(resp2.Attempts) != 1 {
		t.Fatalf("pinned request: tier %q attempts %+v, want direct no-oracles", resp2.Tier, resp2.Attempts)
	}
	snap := serverStats(t, ts.URL)
	if snap.Breakers["check"].State != "open" {
		t.Fatalf("check breaker = %+v, want open", snap.Breakers["check"])
	}
	if snap.Ceiling != "no-oracles" {
		t.Fatalf("ceiling = %q, want no-oracles", snap.Ceiling)
	}
	if snap.Failures["check"] < 2 {
		t.Fatalf("aggregated check failures = %d, want >= 2", snap.Failures["check"])
	}
	if snap.Retries == 0 || snap.Degraded != 2 {
		t.Fatalf("retries=%d degraded=%d, want >0/2", snap.Retries, snap.Degraded)
	}
}

// TestLadderTimeoutFallsThroughToPassthrough makes every analysis stall past
// the request deadline: the first rung times out, the remaining rungs are
// skipped for lack of budget, and passthrough still answers in time.
func TestLadderTimeoutFallsThroughToPassthrough(t *testing.T) {
	setFaults(t, restructure.FaultInjection{
		Analyze: func(*ir.Program, ir.NodeID) { time.Sleep(40 * time.Millisecond) },
	})
	clock := newFakeClock()
	_, ts := newTestService(t, trippy(clock))

	resp := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true, DeadlineMS: 50})
	if resp.Tier != "passthrough" || !resp.Degraded {
		t.Fatalf("tier = %q degraded=%v, want passthrough/true", resp.Tier, resp.Degraded)
	}
	if resp.Report != nil {
		t.Fatalf("passthrough carried a report: %+v", resp.Report)
	}
	first, last := resp.Attempts[0], resp.Attempts[len(resp.Attempts)-1]
	if first.Tier != "full" || first.Outcome != "timeout" {
		t.Fatalf("first attempt = %+v, want full/timeout", first)
	}
	if last.Tier != "passthrough" || last.Outcome != "ok" {
		t.Fatalf("last attempt = %+v, want passthrough/ok", last)
	}

	// The timeout breaker pins the next request at the cheap
	// intraprocedural tier (which, with the stall still injected, times out
	// again and passes through).
	snap := serverStats(t, ts.URL)
	if snap.Breakers["timeout"].State != "open" || snap.Ceiling != "intra-only" {
		t.Fatalf("timeout breaker %+v ceiling %q, want open/intra-only",
			snap.Breakers["timeout"], snap.Ceiling)
	}
	resp2 := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true, DeadlineMS: 50})
	if resp2.Attempts[0].Tier != "intra-only" {
		t.Fatalf("pinned request first attempt = %+v, want intra-only", resp2.Attempts[0])
	}
}

// TestLadderContainedKindsPinViaBreaker covers the FailureKinds the driver
// contains without failing the request — the attempt succeeds, but the
// breaker for the observed kind trips and pins subsequent requests at the
// tier that avoids it.
func TestLadderContainedKindsPinViaBreaker(t *testing.T) {
	cases := []struct {
		kind    string
		inject  restructure.FaultInjection
		wantPin string
	}{
		{
			kind: "panic",
			inject: restructure.FaultInjection{
				Analyze: func(*ir.Program, ir.NodeID) { panic("injected analysis panic") },
			},
			wantPin: "passthrough",
		},
		{
			kind: "validate",
			inject: restructure.FaultInjection{
				AfterApply: func(*ir.Program, ir.NodeID) error { return errors.New("injected gate failure") },
			},
			wantPin: "passthrough",
		},
		{
			kind: "diff-mismatch",
			inject: restructure.FaultInjection{
				// Mutate a printed constant on the scratch clone: valid
				// graph, wrong output — only the shadow oracle catches it.
				AfterApply: func(scratch *ir.Program, _ ir.NodeID) error {
					for _, n := range scratch.Nodes {
						if n != nil && n.Kind == ir.NPrint && n.Val.IsConst {
							scratch.Mut(n.ID).Val.Const += 1000
							return nil
						}
					}
					return nil
				},
			},
			wantPin: "check-only",
		},
		{
			kind: "op-growth",
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
						n.RHS = ir.RHS{Kind: ir.RCopy, Src: g}
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
			wantPin: "check-only",
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			setFaults(t, tc.inject)
			clock := newFakeClock()
			_, ts := newTestService(t, trippy(clock))

			// The faults are contained per branch: the request itself
			// succeeds at the full tier.
			resp := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
			if resp.Tier != "full" {
				t.Fatalf("tier = %q, want full (contained failure)", resp.Tier)
			}
			if resp.Attempts[0].Failures[tc.kind] == 0 {
				t.Fatalf("attempt failures = %v, want %s > 0", resp.Attempts[0].Failures, tc.kind)
			}

			// The observed kind tripped its breaker; the next request is
			// pinned at the tier that avoids the failing machinery.
			snap := serverStats(t, ts.URL)
			if st := snap.Breakers[tc.kind]; st.State != "open" || st.Pin != tc.wantPin {
				t.Fatalf("breaker = %+v, want open pin %q", st, tc.wantPin)
			}
			if snap.Ceiling != tc.wantPin {
				t.Fatalf("ceiling = %q, want %q", snap.Ceiling, tc.wantPin)
			}
			resp2 := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
			if resp2.Attempts[0].Tier != tc.wantPin {
				t.Fatalf("pinned first attempt = %+v, want %q", resp2.Attempts[0], tc.wantPin)
			}

			// Cooldown elapses, the fault is fixed, a probe runs back at
			// full fidelity and closes the breaker.
			restructure.SetFaultInjection(restructure.FaultInjection{})
			clock.Advance(2 * time.Minute)
			resp3 := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
			if resp3.Tier != "full" || resp3.Degraded {
				t.Fatalf("probe response tier = %q, want full", resp3.Tier)
			}
			snap2 := serverStats(t, ts.URL)
			if st := snap2.Breakers[tc.kind]; st.State != "closed" {
				t.Fatalf("breaker after clean probe = %+v, want closed", st)
			}
			if snap2.Ceiling != "full" {
				t.Fatalf("ceiling after recovery = %q, want full", snap2.Ceiling)
			}
		})
	}
}
