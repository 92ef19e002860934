package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"icbe/internal/ir"
	"icbe/internal/reportjson"
	"icbe/internal/store"
)

// Result caching.
//
// The server fronts the optimizer with the store under one key per result:
// the source text and a fingerprint of everything else that shapes the body,
// the build included. The source fixes the compiled program, so a hit skips
// compilation, and an exact repeat is what makes a warm hit an order of
// magnitude cheaper than the cheapest compute.
//
// Only full-tier, untruncated results enter the cache: a passthrough or
// truncated body is shaped by the request's deadline, which is deliberately
// excluded from the key. For the same reason the singleflight leader
// publishes only cacheable bodies to its waiters.

// requestShape is the encoding hashed into the request fingerprint: every
// request field besides the program that can change the response body, and
// the build that renders it. The deadline is deliberately absent, and so is
// the worker count: bodies are byte-identical across worker counts.
type requestShape struct {
	Build    string  `json:"build"`
	Term     int     `json:"term"`
	Limit    int     `json:"limit"`
	FullOnly bool    `json:"full_only"`
	Compact  bool    `json:"compact"`
	Fold     bool    `json:"fold"`
	Run      bool    `json:"run"`
	Input    []int64 `json:"input"`
	NoDump   bool    `json:"no_dump"`
}

// buildIdentity names the build that renders a body: the main module's
// version and the VCS revision and dirty flag the go command stamps into the
// binary. A body's bytes may change with the code, so a store written by one
// build never serves another. Builds without VCS stamping (go test, go run,
// -buildvcs=false) share one identity, as do edits on top of one revision.
var buildIdentity = func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	id := bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" || kv.Key == "vcs.modified" {
			id += " " + kv.Key + "=" + kv.Value
		}
	}
	return id
}()

// fingerprintRequest condenses the request shape under the server's
// effective option defaults.
func (s *Server) fingerprintRequest(req *OptimizeRequest) store.Fingerprint {
	o := s.baseOptions(req.Options)
	shape := requestShape{
		Build:    s.cfg.build,
		Term:     o.TerminationLimit,
		Limit:    o.MaxDuplication,
		FullOnly: o.FullOnly,
		Compact:  o.Compact,
		Fold:     o.Fold,
		Run:      req.Run || len(req.Input) > 0,
		Input:    req.Input,
		NoDump:   req.NoDump,
	}
	enc, _ := json.Marshal(shape)
	return store.NewFingerprint(enc)
}

// buildBody renders the deterministic response body for a request's
// terminal result. The bytes returned are exactly what is served — and, when
// the result is cacheable, exactly what the store holds and replays.
// The driver counters' telemetry (wall clocks, workers, memo warmth) is
// scrubbed from the body; the full values still reach /stats through the
// metrics aggregate.
func buildBody(r *attemptResult, req *OptimizeRequest) []byte {
	resp := OptimizeResponse{
		Tier:     r.tier.String(),
		Degraded: r.tier != TierFull,
		Attempts: r.attempts,
		Report:   reportjson.FromReport(r.report),
	}
	if resp.Report != nil {
		resp.Report.Stats.Scrub()
	}
	if !req.NoDump {
		resp.Dump = r.prog.Dump()
	}
	if req.Run || len(req.Input) > 0 {
		if res, err := r.prog.Run(req.Input); err != nil {
			resp.RunError = err.Error()
		} else {
			resp.Output = res.Output
		}
	}
	var buf bytes.Buffer
	_ = reportjson.Encode(&buf, resp)
	return buf.Bytes()
}

// cacheable reports whether a result may enter the store and be published to
// singleflight waiters: full tier only (a passthrough may be an artifact of
// this request's deadline) and untruncated.
func cacheable(r *attemptResult) bool {
	return r.tier == TierFull && r.report != nil && !r.report.Truncated
}

// writeRaw serves pre-rendered response bytes with the cache-status and
// elapsed-time headers (the only places timing appears; bodies are
// deterministic).
func writeRaw(w http.ResponseWriter, status int, body []byte, cacheStatus string, elapsed time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Icbe-Cache", cacheStatus)
	w.Header().Set("X-Icbe-Elapsed-Ms", fmt.Sprintf("%.3f", float64(elapsed)/float64(time.Millisecond)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// persistResult records a cacheable result in the store: the body and the
// optimized program for verify-on-read.
func (s *Server) persistResult(key store.ResultKey, r *attemptResult, body []byte) *store.Entry {
	ent := &store.Entry{Body: body, Prog: ir.EncodeProgram(r.prog.Graph())}
	s.store.PutResult(key, ent)
	return ent
}
