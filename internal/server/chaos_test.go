package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/restructure"
)

// Marker constants let the process-global fault hooks target only the
// requests that opted in: a branch comparing against the marker triggers the
// fault, every other program is untouched.
const (
	panicMarker = 31337
	checkMarker = 41414
)

const panicSrc = `
func main() {
	var x = 31337;
	if (x == 31337) { print(1); }
	print(2);
}
`

const checkSrc = `
func main() {
	var y = 41414;
	if (y == 41414) { print(3); }
	print(4);
}
`

// TestChaosMixedLoad is the acceptance scenario: 200 concurrent requests
// mixing healthy programs, injected panics, injected check refusals,
// oversized bodies, and hopeless deadlines. The process must survive, every
// request must get a terminal response labeled full or passthrough, and
// /stats must reconcile with the injected faults.
func TestChaosMixedLoad(t *testing.T) {
	setFaults(t, restructure.FaultInjection{
		Analyze: func(snapshot *ir.Program, b ir.NodeID) {
			if snapshot.Node(b).CondRHS().Const == panicMarker {
				panic("chaos: injected analysis panic")
			}
		},
		CheckAnswers: func(p *ir.Program, b ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet {
			if p.Node(b).CondRHS().Const != checkMarker {
				return ans
			}
			if ans == analysis.AnsTrue {
				return analysis.AnsFalse
			}
			return analysis.AnsTrue
		},
	})
	_, ts := newTestService(t, Config{
		MaxInFlight:     8,
		MaxQueue:        256,
		MaxRequestBytes: 8192,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     30 * time.Second,
	})

	oversized := okSrc + "// " + strings.Repeat("x", 16<<10) + "\n"
	kinds := []struct {
		name string
		req  OptimizeRequest
		n    int
	}{
		{"ok", OptimizeRequest{Program: okSrc, NoDump: true}, 80},
		{"panic", OptimizeRequest{Program: panicSrc, NoDump: true}, 40},
		{"check", OptimizeRequest{Program: checkSrc, NoDump: true}, 40},
		{"oversized", OptimizeRequest{Program: oversized, NoDump: true}, 20},
		{"deadline", OptimizeRequest{Program: okSrc, NoDump: true, DeadlineMS: 1}, 20},
	}

	type result struct {
		kind   string
		status int
		resp   OptimizeResponse
	}
	var wg sync.WaitGroup
	results := make(chan result, 200)
	for _, k := range kinds {
		for i := 0; i < k.n; i++ {
			wg.Add(1)
			go func(kind string, req OptimizeRequest) {
				defer wg.Done()
				status, raw := post(t, ts.URL, req)
				r := result{kind: kind, status: status}
				if status == http.StatusOK {
					if err := json.Unmarshal(raw, &r.resp); err != nil {
						t.Errorf("%s: bad response body: %v\n%s", kind, err, raw)
					}
				}
				results <- r
			}(k.name, k.req)
		}
	}
	wg.Wait()
	close(results)

	counts := map[string]map[int]int{}
	var completed, checkOK, panicOK int64
	for r := range results {
		if counts[r.kind] == nil {
			counts[r.kind] = map[int]int{}
		}
		counts[r.kind][r.status]++
		switch r.status {
		case http.StatusOK:
		case http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			continue // shed is a terminal response too
		default:
			t.Fatalf("%s request: non-terminal status %d", r.kind, r.status)
		}
		completed++

		// Every accepted response is labeled with the tier that produced
		// it — full or passthrough — and a passthrough says so.
		if r.resp.Tier != "full" && r.resp.Tier != "passthrough" {
			t.Fatalf("%s request: tier %q, want full or passthrough", r.kind, r.resp.Tier)
		}
		if (r.resp.Tier != "full") != r.resp.Degraded {
			t.Fatalf("%s request: tier %q but degraded=%v", r.kind, r.resp.Tier, r.resp.Degraded)
		}
		switch r.kind {
		case "ok":
			if r.resp.Tier != "full" {
				t.Fatalf("healthy request degraded to %q", r.resp.Tier)
			}
		case "panic":
			// The panic is contained per branch: full tier, with the kind
			// visible in the attempt.
			panicOK++
			if r.resp.Tier != "full" || r.resp.Attempts[0].Failures["panic"] != 1 {
				t.Fatalf("panic request: tier %q attempts %+v", r.resp.Tier, r.resp.Attempts)
			}
		case "check":
			// The check refusal is contained per branch like the panic: the
			// refused conditional rolls back and the request answers full.
			checkOK++
			if r.resp.Tier != "full" || r.resp.Attempts[0].Failures["check"] != 1 {
				t.Fatalf("check request: tier %q attempts %+v", r.resp.Tier, r.resp.Attempts)
			}
		case "oversized":
			t.Fatalf("oversized request was accepted (status 200)")
		case "deadline":
			if r.resp.Tier != "passthrough" {
				t.Fatalf("1ms-deadline request: tier %q, want passthrough", r.resp.Tier)
			}
		}
	}
	if counts["oversized"][http.StatusRequestEntityTooLarge] != 20 {
		t.Fatalf("oversized statuses = %v, want all 413", counts["oversized"])
	}
	for _, kind := range []string{"ok", "panic", "check"} {
		if n := counts[kind][http.StatusOK]; n == 0 {
			t.Fatalf("no %s request completed: %v", kind, counts[kind])
		}
	}

	snap := serverStats(t, ts.URL)
	if snap.Requests != 200 {
		t.Fatalf("requests = %d, want 200", snap.Requests)
	}
	if snap.Completed != completed {
		t.Fatalf("completed = %d, want %d", snap.Completed, completed)
	}
	// Failure counts reconcile with the injected faults: one contained
	// panic per completed panic request, one contained check refusal per
	// completed check request.
	if snap.Failures["panic"] != panicOK {
		t.Fatalf("failures[panic] = %d, want %d", snap.Failures["panic"], panicOK)
	}
	if snap.Failures["check"] != checkOK {
		t.Fatalf("failures[check] = %d, want %d", snap.Failures["check"], checkOK)
	}
	if snap.Shed["oversized"] != 20 {
		t.Fatalf("shed = %v, want oversized=20", snap.Shed)
	}
	var shedTotal int64
	for _, n := range snap.Shed {
		shedTotal += n
	}
	if shedTotal != snap.ShedTotal || shedTotal+completed != 200 {
		t.Fatalf("shed %d + completed %d != 200 (shed map %v)", shedTotal, completed, snap.Shed)
	}
	assertTwoTiers(t, snap)
	var tierTotal int64
	for _, n := range snap.Tiers {
		tierTotal += n
	}
	if tierTotal != completed {
		t.Fatalf("tier occupancy %v sums to %d, want %d", snap.Tiers, tierTotal, completed)
	}
	if snap.QueueDepth != 0 || snap.InFlight != 0 || snap.InFlightBytes != 0 {
		t.Fatalf("gauges not drained: %d/%d/%d", snap.QueueDepth, snap.InFlight, snap.InFlightBytes)
	}
}
