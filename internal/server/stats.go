package server

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"icbe"
	"icbe/internal/store"
)

// latencyWindow bounds the sample ring used for the latency percentiles.
const latencyWindow = 4096

// metrics aggregates request outcomes across the server's lifetime. The
// /stats endpoint serializes a snapshot; the driver-counter aggregate is the
// record `icbe -json` encodes, so the service and the CLI can never drift.
type metrics struct {
	mu          sync.Mutex
	start       time.Time
	requests    int64
	admitted    int64
	completed   int64
	degraded    int64
	panics      int64 // handler panics contained by the recovery middleware
	shed        map[string]int64
	tiers       map[string]int64
	failures    map[string]int64
	driver      icbe.DriverStats
	runs        int64
	cacheServed int64 // responses served from the store, no driver run
	batchReqs   int64
	batchItems  int64

	lat  []float64 // rolling latency samples, milliseconds
	next int
	n    int64
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		shed:     make(map[string]int64),
		tiers:    make(map[string]int64),
		failures: make(map[string]int64),
		lat:      make([]float64, 0, latencyWindow),
	}
}

func (m *metrics) request() {
	m.mu.Lock()
	m.requests++
	m.mu.Unlock()
}

func (m *metrics) shedOne(reason string) {
	m.mu.Lock()
	m.shed[reason]++
	m.mu.Unlock()
}

func (m *metrics) admit() {
	m.mu.Lock()
	m.admitted++
	m.mu.Unlock()
}

func (m *metrics) panicContained() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// batch counts one accepted /optimize-batch request and its item fan-out.
// Items then count themselves through the ordinary per-request aggregates
// (admitted, completed, shed, tiers) exactly as standalone requests would.
func (m *metrics) batch(items int) {
	m.mu.Lock()
	m.batchReqs++
	m.batchItems += int64(items)
	m.mu.Unlock()
}

// cacheServe folds a store-served response into the aggregates. Cached
// bodies are always full-tier (nothing else enters the store), count toward
// completion and latency, but add no driver counters — no driver ran.
func (m *metrics) cacheServe(latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.cacheServed++
	m.tiers[TierFull.String()]++
	m.observeLatency(latency)
}

// complete folds one terminal response into the aggregates. The failure
// counts are the attempts' contained driver failures plus the server-level
// "panic" and "timeout" attempt outcomes.
func (m *metrics) complete(r *attemptResult, latency time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.tiers[r.tier.String()]++
	if r.tier != TierFull {
		m.degraded++
	}
	for _, a := range r.attempts {
		for k, n := range a.Failures {
			m.failures[k] += int64(n)
		}
		if a.Outcome == "panic" || a.Outcome == "timeout" {
			m.failures[a.Outcome]++
		}
	}
	if r.report != nil {
		m.driver.Add(r.report.Stats)
		m.runs++
	}
	m.observeLatency(latency)
}

// observeLatency records one sample into the rolling window; callers hold
// m.mu.
func (m *metrics) observeLatency(latency time.Duration) {
	ms := float64(latency) / float64(time.Millisecond)
	if len(m.lat) < latencyWindow {
		m.lat = append(m.lat, ms)
	} else {
		m.lat[m.next] = ms
		m.next = (m.next + 1) % latencyWindow
	}
	m.n++
}

// LatencyStats is the /stats latency block (milliseconds, over the rolling
// sample window).
type LatencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// StatsSnapshot is the /stats payload.
type StatsSnapshot struct {
	UptimeMS      int64            `json:"uptime_ms"`
	Draining      bool             `json:"draining"`
	Requests      int64            `json:"requests"`
	Admitted      int64            `json:"admitted"`
	Completed     int64            `json:"completed"`
	Degraded      int64            `json:"degraded"` // passthrough answers
	HandlerPanics int64            `json:"handler_panics"`
	Shed          map[string]int64 `json:"shed,omitempty"`
	ShedTotal     int64            `json:"shed_total"`
	QueueDepth    int64            `json:"queue_depth"`
	InFlight      int              `json:"in_flight"`
	InFlightBytes int64            `json:"in_flight_bytes"`
	Tiers         map[string]int64 `json:"tiers,omitempty"`
	Failures      map[string]int64 `json:"failures,omitempty"`
	Driver        icbe.DriverStats `json:"driver"`
	OptimizeRuns  int64            `json:"optimize_runs"`
	CacheServed   int64            `json:"cache_served"`
	Store         *store.Snapshot  `json:"store,omitempty"`
	Batch         BatchStats       `json:"batch"`
	LatencyMS     LatencyStats     `json:"latency_ms"`
	Goroutines    int              `json:"goroutines"`
}

// BatchStats is the /stats batch block: accepted batch requests and the items
// they fanned out (items also appear in the per-request aggregates).
type BatchStats struct {
	Requests int64 `json:"requests"`
	Items    int64 `json:"items"`
}

func (m *metrics) snapshot() StatsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := StatsSnapshot{
		UptimeMS:      time.Since(m.start).Milliseconds(),
		Requests:      m.requests,
		Admitted:      m.admitted,
		Completed:     m.completed,
		Degraded:      m.degraded,
		HandlerPanics: m.panics,
		Shed:          copyInt64s(m.shed),
		Tiers:         copyInt64s(m.tiers),
		Failures:      copyInt64s(m.failures),
		Driver:        m.driver,
		OptimizeRuns:  m.runs,
		CacheServed:   m.cacheServed,
		Batch:         BatchStats{Requests: m.batchReqs, Items: m.batchItems},
		Goroutines:    runtime.NumGoroutine(),
	}
	s.Driver.Failures = copyInts(m.driver.Failures)
	for _, n := range m.shed {
		s.ShedTotal += n
	}
	s.LatencyMS = percentiles(m.lat)
	return s
}

func percentiles(samples []float64) LatencyStats {
	ls := LatencyStats{Count: int64(len(samples))}
	if len(samples) == 0 {
		return ls
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	ls.P50, ls.P95, ls.P99 = at(0.50), at(0.95), at(0.99)
	return ls
}

func copyInt64s(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyInts(m map[string]int) map[string]int {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
