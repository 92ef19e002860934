package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOptimizeFullTier(t *testing.T) {
	_, ts := newTestService(t, Config{})
	resp := postOK(t, ts.URL, OptimizeRequest{Program: okSrc, Input: []int64{1}})
	if resp.Tier != "full" || resp.Degraded {
		t.Fatalf("tier = %q degraded=%v, want full/false", resp.Tier, resp.Degraded)
	}
	if resp.Report == nil || resp.Report.Optimized == 0 {
		t.Fatalf("report missing or optimized nothing: %+v", resp.Report)
	}
	if len(resp.Attempts) != 1 || resp.Attempts[0].Outcome != "ok" {
		t.Fatalf("attempts = %+v, want one ok attempt", resp.Attempts)
	}
	if resp.Dump == "" {
		t.Fatal("dump missing")
	}
	// 10, 20, a+b+g = 8: the optimized program still runs correctly.
	want := []int64{10, 20, 8}
	if len(resp.Output) != len(want) {
		t.Fatalf("output = %v, want %v", resp.Output, want)
	}
	for i := range want {
		if resp.Output[i] != want[i] {
			t.Fatalf("output = %v, want %v", resp.Output, want)
		}
	}
	// The full tier ran both oracles.
	if resp.Report.Stats.VerifyRuns == 0 || resp.Report.Stats.CheckRuns == 0 {
		t.Fatalf("full tier skipped an oracle: verify %d check %d",
			resp.Report.Stats.VerifyRuns, resp.Report.Stats.CheckRuns)
	}
}

func TestOptimizeBadRequests(t *testing.T) {
	_, ts := newTestService(t, Config{})
	if status, _ := post(t, ts.URL, OptimizeRequest{}); status != http.StatusBadRequest {
		t.Errorf("missing program: status %d, want 400", status)
	}
	if status, body := post(t, ts.URL, OptimizeRequest{Program: "func main( {"}); status != http.StatusUnprocessableEntity {
		t.Errorf("compile error: status %d, want 422; body %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize: status %d, want 405", resp.StatusCode)
	}
}

func TestOversizedRequestShed(t *testing.T) {
	_, ts := newTestService(t, Config{MaxRequestBytes: 2048})
	big := okSrc + "// " + strings.Repeat("x", 4096) + "\n"
	status, body := post(t, ts.URL, OptimizeRequest{Program: big})
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: status %d, want 413; body %s", status, body)
	}
	snap := serverStats(t, ts.URL)
	if snap.Shed["oversized"] != 1 || snap.ShedTotal != 1 {
		t.Fatalf("shed counters = %v (total %d), want oversized=1", snap.Shed, snap.ShedTotal)
	}
}

func TestMemoryEstimateShed(t *testing.T) {
	// A cap below one request's fixed estimate sheds everything with 429 +
	// Retry-After.
	_, ts := newTestService(t, Config{MaxInFlightBytes: 1024})
	status, body := post(t, ts.URL, OptimizeRequest{Program: okSrc})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", status, body)
	}
	snap := serverStats(t, ts.URL)
	if snap.Shed["memory"] != 1 {
		t.Fatalf("shed counters = %v, want memory=1", snap.Shed)
	}
}

func TestHealthzReadyzStats(t *testing.T) {
	s, ts := newTestService(t, Config{})
	var health map[string]any
	if status := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK {
		t.Fatalf("/healthz status %d", status)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("/readyz status %d", status)
	}

	postOK(t, ts.URL, OptimizeRequest{Program: okSrc, NoDump: true})
	snap := serverStats(t, ts.URL)
	if snap.Requests != 1 || snap.Admitted != 1 || snap.Completed != 1 {
		t.Fatalf("stats counters = %d/%d/%d, want 1/1/1", snap.Requests, snap.Admitted, snap.Completed)
	}
	if snap.Tiers["full"] != 1 || snap.Degraded != 0 {
		t.Fatalf("tier occupancy = %v degraded=%d, want full=1/0", snap.Tiers, snap.Degraded)
	}
	if snap.Driver.Analyses == 0 || snap.OptimizeRuns != 1 {
		t.Fatalf("driver aggregate empty: %+v runs=%d", snap.Driver, snap.OptimizeRuns)
	}
	if snap.LatencyMS.Count != 1 || snap.LatencyMS.P99 <= 0 {
		t.Fatalf("latency stats = %+v", snap.LatencyMS)
	}
	assertTwoTiers(t, snap)
	if snap.QueueDepth != 0 || snap.InFlight != 0 || snap.InFlightBytes != 0 {
		t.Fatalf("gauges not drained: %d/%d/%d", snap.QueueDepth, snap.InFlight, snap.InFlightBytes)
	}
	_ = s
}

func TestClientOptionsRespected(t *testing.T) {
	// Response bodies are deterministic and carry no worker count; the
	// effective worker choice is observable through the /stats driver
	// aggregate instead (Workers aggregates as a maximum).
	s, ts := newTestService(t, Config{Workers: 4})
	resp := postOK(t, ts.URL, OptimizeRequest{
		Program: okSrc,
		NoDump:  true,
		Options: &RequestOptions{Term: 50, Workers: 1, Compact: true},
	})
	if resp.Report == nil {
		t.Fatal("report missing")
	}
	if got := resp.Report.Stats.Workers; got != 0 {
		t.Fatalf("body leaked a worker count: %d", got)
	}
	if got := s.Stats().Driver.Workers; got != 1 {
		t.Fatalf("driver workers = %d, want the client's 1", got)
	}
	// A client cannot raise workers above the server ceiling.
	postOK(t, ts.URL, OptimizeRequest{
		Program: okSrc,
		NoDump:  true,
		Options: &RequestOptions{Workers: 64},
	})
	if got := s.Stats().Driver.Workers; got > 4 {
		t.Fatalf("driver workers = %d, want clamped to 4", got)
	}
}

func TestHandlerPanicContained(t *testing.T) {
	s, _ := newTestService(t, Config{})
	// Force a handler bug through the recovery middleware.
	h := s.recoverWrap(func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if s.met.panics != 1 {
		t.Fatal("handler panic not counted")
	}
}
