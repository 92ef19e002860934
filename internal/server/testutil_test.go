package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"icbe/internal/restructure"
)

// okSrc is a small program with two fully correlated conditionals plus
// output, so the full tier has real work and the shadow oracle has output to
// compare.
const okSrc = `
var g = 7;

func main() {
	var a = 0;
	var b = 1;
	if (a == 0) { print(10); }
	if (b == 1) { print(20); }
	print(a + b + g);
}
`

// fakeClock drives the store health breaker's timing deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// setFaults installs driver fault-injection hooks for the test's duration.
// Hooks are process globals: tests using them must not run in parallel.
func setFaults(t *testing.T, fi restructure.FaultInjection) {
	t.Helper()
	restructure.SetFaultInjection(fi)
	t.Cleanup(func() { restructure.SetFaultInjection(restructure.FaultInjection{}) })
}

// post sends one /optimize request and returns the status code and raw body.
func post(t *testing.T, url string, req OptimizeRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// postOK sends one /optimize request that must succeed (200) and decodes it.
func postOK(t *testing.T, url string, req OptimizeRequest) OptimizeResponse {
	t.Helper()
	status, raw := post(t, url, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", status, raw)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	return out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

func serverStats(t *testing.T, url string) StatsSnapshot {
	t.Helper()
	var snap StatsSnapshot
	if status := getJSON(t, url+"/stats", &snap); status != http.StatusOK {
		t.Fatalf("/stats status = %d", status)
	}
	return snap
}

// assertTwoTiers checks that /stats counts only the two tiers the service
// serves: the checked optimization and the passthrough echo.
func assertTwoTiers(t *testing.T, snap StatsSnapshot) {
	t.Helper()
	for tier := range snap.Tiers {
		if tier != "full" && tier != "passthrough" {
			t.Fatalf("/stats tiers = %v, want only full and passthrough", snap.Tiers)
		}
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
