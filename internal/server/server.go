// Package server is the resilient optimization service behind cmd/icbe-serve:
// a long-running HTTP/JSON front end over icbe.Optimize built so that no
// request — hostile, oversized, or slow — can take the process down or starve
// its neighbors.
//
// Robustness is layered:
//
//   - Admission control: a bounded queue with load shedding. At most
//     MaxInFlight requests optimize concurrently, at most MaxQueue more wait,
//     and the admitted memory estimate stays under MaxInFlightBytes; anything
//     beyond is shed with 429 + Retry-After (413 for oversized bodies).
//   - Deadlines: every request carries a deadline (defaulted and clamped)
//     propagated into the driver's cooperative cancellation, so a slow
//     analysis ends on time with partial work rather than being killed.
//   - Crash-only request isolation: panics are contained per request and
//     classified; the process never exits.
//   - Two outcomes (see Tier): every served optimization ran with both
//     oracles on and every adopted change passed every gate; a conditional
//     an oracle refuses is rolled back and counted, and the rest is served.
//     When that full-tier attempt times out or fails, the compiled program
//     is echoed back instead. Every admitted request reaches a terminal,
//     tier-labeled response.
//   - Graceful drain: Drain stops admission (readyz turns 503), lets
//     in-flight work finish by its deadlines, and only then cancels
//     cooperatively.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"icbe"
	"icbe/internal/reportjson"
	"icbe/internal/store"
)

// Config tunes the service. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// MaxInFlight bounds concurrent optimizations; MaxQueue bounds requests
	// waiting for a slot beyond them.
	MaxInFlight int
	MaxQueue    int
	// MaxRequestBytes caps the request body; larger requests are shed 413.
	MaxRequestBytes int64
	// MaxInFlightBytes caps the summed admission-time memory estimate of
	// everything admitted; excess is shed 429.
	MaxInFlightBytes int64
	// DefaultDeadline applies when a request names none; MaxDeadline clamps
	// what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Workers is the per-request driver worker ceiling.
	Workers int

	// CacheEntries bounds the in-memory result cache; StoreDir roots the
	// durable store. With both zero (the default) the server computes every
	// request fresh — caching is strictly opt-in, because a cache entry is
	// a served response and operators must choose to persist those.
	CacheEntries int
	StoreDir     string
	// StoreFS overrides the store's filesystem (nil = the real one); the
	// fault-injection seam for chaos tests.
	StoreFS store.FS

	// MaxBatchItems caps the items of one /optimize-batch request.
	MaxBatchItems int

	// storeCfg fully overrides the derived store configuration (test seam).
	storeCfg *store.Config
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.MaxInFlightBytes <= 0 {
		c.MaxInFlightBytes = 256 << 20
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 16
	}
	return c
}

// Server is one service instance. Create with New, mount Handler, stop with
// Drain.
type Server struct {
	cfg       Config
	adm       *admission
	met       *metrics
	store     *store.Store // nil = caching disabled
	draining  atomic.Bool
	wg        sync.WaitGroup
	baseCtx   context.Context
	cancelAll context.CancelFunc
}

// New builds a Server from the config (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.MaxInFlightBytes),
		met:       newMetrics(),
		baseCtx:   baseCtx,
		cancelAll: cancel,
	}
	if cfg.storeCfg != nil {
		s.store, _ = store.Open(*cfg.storeCfg)
	} else if cfg.CacheEntries > 0 || cfg.StoreDir != "" {
		// A store that cannot open its directory still serves memory-only;
		// the error is not fatal by design (store-degraded, not down).
		s.store, _ = store.Open(store.Config{
			CacheEntries: cfg.CacheEntries,
			Dir:          cfg.StoreDir,
			FS:           cfg.StoreFS,
		})
	}
	return s
}

// Handler returns the service's HTTP mux: POST /optimize, GET /healthz,
// GET /readyz, GET /stats. Every route is wrapped in panic recovery so a
// handler bug yields a 500, never a dead process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.recoverWrap(s.handleOptimize))
	mux.HandleFunc("/optimize-batch", s.recoverWrap(s.handleOptimizeBatch))
	mux.HandleFunc("/healthz", s.recoverWrap(s.handleHealthz))
	mux.HandleFunc("/readyz", s.recoverWrap(s.handleReadyz))
	mux.HandleFunc("/stats", s.recoverWrap(s.handleStats))
	return mux
}

// Drain stops admission and waits for in-flight requests to finish. If the
// context expires first, in-flight work is cancelled cooperatively (each
// request degrades to passthrough and still answers) and Drain waits for the
// handlers to unwind, returning the context's error to signal the forced
// path. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		return ctx.Err()
	}
}

// Stats returns the current aggregate snapshot (the /stats payload).
func (s *Server) Stats() StatsSnapshot {
	snap := s.met.snapshot()
	snap.Draining = s.draining.Load()
	snap.QueueDepth, snap.InFlight, snap.InFlightBytes = s.adm.gauges()
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	return snap
}

// OptimizeRequest is the /optimize request body.
type OptimizeRequest struct {
	// Program is MiniC source text.
	Program string `json:"program"`
	// DeadlineMS is the request's optimization budget in milliseconds
	// (defaulted and clamped by the server config).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Input, when non-empty (or Run set), executes the optimized program on
	// this stream and returns its output.
	Input []int64 `json:"input,omitempty"`
	Run   bool    `json:"run,omitempty"`
	// NoDump omits the optimized ICFG listing from the response.
	NoDump bool `json:"no_dump,omitempty"`
	// Options carries the analysis knobs a client may tune.
	Options *RequestOptions `json:"options,omitempty"`
}

// RequestOptions is the client-tunable subset of icbe.Options. The oracles
// are not among them: every served optimization runs with Verify and Check.
type RequestOptions struct {
	// Term is the analysis termination limit (node-query pairs).
	Term int `json:"term,omitempty"`
	// Limit is the per-conditional duplication limit N.
	Limit int `json:"limit,omitempty"`
	// Workers requests driver workers (clamped to the server's ceiling).
	Workers int `json:"workers,omitempty"`
	// FullOnly restricts optimization to fully correlated conditionals.
	FullOnly bool `json:"full_only,omitempty"`
	// Compact contracts synthetic no-op nodes after optimization.
	Compact bool `json:"compact,omitempty"`
	// Fold enables the residual constant-branch fold pass after the
	// correlation rounds, each fold gated by its own shadow and re-check
	// oracles.
	Fold bool `json:"fold,omitempty"`
}

// OptimizeResponse is the /optimize response body. Tier labels what produced
// the result: "full" (the checked optimization) or "passthrough" (the
// compiled program echoed back). Degraded is set exactly when the response
// is a passthrough, and Attempts traces why.
//
// The body is deterministic: every field is a pure function of the program
// and the request shape, never of timing, worker scheduling, or cache
// warmth — which is what lets the store replay a body byte-identically.
// Elapsed time is reported in the X-Icbe-Elapsed-Ms header, and the cache
// disposition (hit-memory, hit-disk, coalesced, miss, bypass) in
// X-Icbe-Cache.
type OptimizeResponse struct {
	Tier     string             `json:"tier"`
	Degraded bool               `json:"degraded"`
	Attempts []Attempt          `json:"attempts"`
	Report   *reportjson.Report `json:"report,omitempty"`
	Dump     string             `json:"dump,omitempty"`
	Output   []int64            `json:"output,omitempty"`
	RunError string             `json:"run_error,omitempty"`
}

type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	// Every request holds the drain group for its whole lifetime, including
	// queue waits, so Drain cannot return while a handler is running.
	s.wg.Add(1)
	defer s.wg.Done()
	s.met.request()
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		s.met.shedOne("draining")
		// A draining instance is a retryable condition like any other shed:
		// the replacement instance (or this one, if the drain is a rolling
		// restart) will take the request shortly. The hint scales with the
		// backlog the replacement will inherit, same as every other shed.
		w.Header().Set("Retry-After", fmt.Sprint(s.adm.retryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining", Reason: "draining"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	var req OptimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.met.shedOne("oversized")
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), Reason: "oversized"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	s.writeOutcome(w, s.serveOne(r.Context(), &req))
}

// serveOutcome is the terminal result of serving one optimize item — shared
// by /optimize and each /optimize-batch item so the two paths can never
// diverge in behavior or bytes.
type serveOutcome struct {
	status int
	body   []byte
	// cacheStatus is the X-Icbe-Cache disposition; empty means an error
	// payload with no cache headers.
	cacheStatus string
	retryAfter  int // Retry-After seconds (0 = omit)
	elapsed     time.Duration
}

func errOutcome(status int, e errorResponse) serveOutcome {
	return serveOutcome{status: status, body: encodeJSON(e)}
}

// writeOutcome renders a serveOutcome onto one HTTP response.
func (s *Server) writeOutcome(w http.ResponseWriter, out serveOutcome) {
	if out.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(out.retryAfter))
	}
	if out.cacheStatus != "" {
		writeRaw(w, out.status, out.body, out.cacheStatus, out.elapsed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.status)
	_, _ = w.Write(out.body)
}

// serveOne runs one optimize request end to end — validation, admission,
// cache, singleflight, optimization — and returns the response it would serve. It
// holds its own admission slot, so concurrent batch items contend with
// single requests on equal terms.
func (s *Server) serveOne(parent context.Context, req *OptimizeRequest) serveOutcome {
	if req.Program == "" {
		return errOutcome(http.StatusBadRequest, errorResponse{Error: `missing "program"`})
	}
	if int64(len(req.Program)) > s.cfg.MaxRequestBytes {
		// Batch items dodge the whole-body MaxBytesReader, so the per-item
		// program cap is enforced here with the same status and reason.
		s.met.shedOne("oversized")
		return errOutcome(http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("program exceeds %d bytes", s.cfg.MaxRequestBytes), Reason: "oversized"})
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(parent, deadline)
	defer cancel()
	// A drain past its grace period cancels in-flight requests through the
	// server's base context.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	release, shed := s.adm.admit(ctx, estimateBytes(len(req.Program)))
	if shed != nil {
		s.met.shedOne(shed.reason)
		out := errOutcome(shed.status, errorResponse{Error: shed.msg, Reason: shed.reason})
		out.retryAfter = shed.retryAfter
		return out
	}
	defer release()
	s.met.admit()

	t0 := time.Now()

	// L1: an exact repeat (same source text, same request shape) serves
	// straight from the store — no compile, no hash, no optimizer.
	var fp store.Fingerprint
	var l1 store.ResultKey
	if s.store != nil {
		fp = s.fingerprintRequest(req)
		l1 = store.KeyForSource(req.Program, fp)
		if l2, ok := s.store.SourceKey(l1); ok {
			if ent, src := s.store.GetResult(l2); ent != nil {
				s.met.cacheServe(time.Since(t0))
				return serveOutcome{status: http.StatusOK, body: ent.Body, cacheStatus: "hit-" + src, elapsed: time.Since(t0)}
			}
		}
	}

	prog, err := icbe.Compile(req.Program)
	if err != nil {
		return errOutcome(http.StatusUnprocessableEntity, errorResponse{Error: err.Error(), Reason: "compile"})
	}

	// L2: the content-addressed key — canonically equal programs submitted
	// as different source layouts coalesce here. On a miss, join the
	// singleflight so a stampede on one key computes once.
	var l2 store.ResultKey
	var flight *store.Flight
	leader := false
	if s.store != nil {
		l2 = cacheKey(prog, fp)
		s.store.MapSource(l1, l2)
		if ent, src := s.store.GetResult(l2); ent != nil {
			s.met.cacheServe(time.Since(t0))
			return serveOutcome{status: http.StatusOK, body: ent.Body, cacheStatus: "hit-" + src, elapsed: time.Since(t0)}
		}
		flight, leader = s.store.BeginFlight(l2)
		if !leader {
			if ent := s.store.WaitFlight(ctx, flight); ent != nil {
				s.met.cacheServe(time.Since(t0))
				return serveOutcome{status: http.StatusOK, body: ent.Body, cacheStatus: "coalesced", elapsed: time.Since(t0)}
			}
			// The leader published nothing (degraded result) or our own
			// deadline fired first: compute for ourselves, publish nothing.
			flight = nil
		}
	}
	var published *store.Entry
	if leader {
		// Whatever happens below — including a contained panic — the
		// flight must resolve, or waiters would idle out their deadlines.
		defer func() { s.store.FinishFlight(l2, flight, published) }()
	}

	res := optimize(ctx, prog, s.baseOptions(req.Options))

	body := buildBody(res, req)
	cacheStatus := "bypass"
	if s.store != nil && cacheable(res) {
		published = s.persistResult(l2, res, body)
		cacheStatus = "miss"
	}
	elapsed := time.Since(t0)
	s.met.complete(res, elapsed)
	return serveOutcome{status: http.StatusOK, body: body, cacheStatus: cacheStatus, elapsed: elapsed}
}

// baseOptions builds one request's option set before the full tier turns
// its oracles on.
func (s *Server) baseOptions(ro *RequestOptions) icbe.Options {
	o := icbe.DefaultOptions()
	o.Workers = s.cfg.Workers
	if ro == nil {
		return o
	}
	if ro.Term > 0 {
		o.TerminationLimit = ro.Term
	}
	if ro.Limit > 0 {
		o.MaxDuplication = ro.Limit
	}
	if ro.Workers > 0 && ro.Workers < o.Workers {
		o.Workers = ro.Workers
	}
	o.FullOnly = ro.FullOnly
	o.Compact = ro.Compact
	o.Fold = ro.Fold
	return o
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process is up and serving; draining does not make it
	// unhealthy (readiness does that).
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.met.start).Milliseconds(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// recoverWrap is the crash-only boundary for handler bugs: a panic becomes a
// 500 and a counter, never a dead process.
func (s *Server) recoverWrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicContained()
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The shared reportjson encoder renders every payload that leaves the
	// service, exactly as `icbe -json` renders the CLI's.
	_ = reportjson.Encode(w, v)
}

// encodeJSON renders a payload to bytes with the same encoder writeJSON
// streams with, so buffered outcomes (batch items) match direct responses
// byte for byte.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = reportjson.Encode(&buf, v)
	return buf.Bytes()
}
