package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/server"
)

// The serve-mixed load: an open loop, so independent clients keep arriving
// while the server is busy. The reference step produces the latency metrics;
// the capacity ladder then raises the rate until a step misses the latency
// limit or leaves a backlog. Steps send whole blocks (see nextBlock), so every
// step's traffic mix is exact. The mix and the reference rate are assumed,
// not measured: no record of real traffic exists to draw them from.
const (
	refRate      = 40.0
	refShare     = 0.7  // of each part's time spent at the reference rate
	ladderShare  = 0.08 // of --seconds per ladder step
	latencyLimit = 100.0
	blockLen     = 35
)

var ladderRates = []float64{60, 90, 135, 200, 300}

// blocksFor returns how many whole blocks fill d at rate, at least one.
func blocksFor(rate float64, d time.Duration) int {
	return max(1, int(rate*d.Seconds()/blockLen+0.5))
}

type serveRequest struct {
	body []byte
	want []int64 // the reference output of the unoptimized program
	// hot is the paper program a hot request repeats, -1 for a miss; a hit
	// must return that program's warm-up body byte for byte.
	hot int
}

type serveResult struct {
	req              *serveRequest
	sched, sent, end time.Time
	status           int
	cache            string  // X-Icbe-Cache
	handlerMS        float64 // X-Icbe-Elapsed-Ms
	body             []byte
	err              error
}

// Selectors and measures over results, for pick.
func all(*serveResult) bool            { return true }
func isHit(r *serveResult) bool        { return strings.HasPrefix(r.cache, "hit-") }
func isMiss(r *serveResult) bool       { return r.cache == "miss" }
func latency(r *serveResult) float64   { return ms(r.end.Sub(r.sched)) } // from the scheduled send
func roundTrip(r *serveResult) float64 { return ms(r.end.Sub(r.sent)) }
func handler(r *serveResult) float64   { return r.handlerMS }
func late(r *serveResult) float64      { return ms(r.sent.Sub(r.sched)) }
func transport(r *serveResult) float64 { return roundTrip(r) - r.handlerMS }

// pick returns f of every result keep accepts.
func pick(rs []serveResult, keep func(*serveResult) bool, f func(*serveResult) float64) []float64 {
	var out []float64
	for i := range rs {
		if keep(&rs[i]) {
			out = append(out, f(&rs[i]))
		}
	}
	return out
}

// serveSession is one set-up server with its traffic.
type serveSession struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
	conns  int

	paper   []paperRef
	hot     []*serveRequest // one per paper program
	hotBody [][]byte        // each hot request's warm-up response
	rng     *splitmix
	term    int             // the last termination limit a miss used
	queue   []*serveRequest // the generated blocks, consumed in order
}

// paperRef is a paper program with its Train input and reference output.
type paperRef struct {
	src   string
	train []int64
	want  []int64
}

func newRequest(hot int, req server.OptimizeRequest, want []int64) *serveRequest {
	body, _ := json.Marshal(req) // a struct of strings and numbers always encodes
	return &serveRequest{body: body, want: want, hot: hot}
}

// nextBlock appends one block of blockLen requests to the queue in a seeded
// order: each paper program three times hot and once with a fresh
// termination limit, and seven fresh generated programs — an assumed 60%
// hits and 40% misses that compute and write the store. The generated
// programs nest at most two deep: at the default depth of three about one in
// a hundred grows several-fold under unlimited duplication and allocates
// 40–100 MB in one request, so whether one lands in a step would decide the
// step's peak RSS.
func (s *serveSession) nextBlock() error {
	var b []*serveRequest
	for i, p := range s.paper {
		b = append(b, s.hot[i], s.hot[i], s.hot[i])
		s.term++
		b = append(b, newRequest(-1, server.OptimizeRequest{Program: p.src, Input: p.train,
			Options: &server.RequestOptions{Fold: true, Term: s.term}}, p.want))
		src := randprog.Generate(s.rng.next(), randprog.Config{Procs: 6, MaxDepth: 2})
		out, err := reference(src, nil)
		if err != nil {
			return fmt.Errorf("generated program: %w", err)
		}
		b = append(b, newRequest(-1, server.OptimizeRequest{Program: src, Run: true}, out))
	}
	s.rng.shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	s.queue = append(s.queue, b...)
	return nil
}

// runServe runs one part of serve-mixed: set-up, the reference step and, in
// the last part, the capacity ladder and the traced step.
func runServe(cfg runConfig, index int, last bool, pr *prober, o *part) error {
	refBlocks := blocksFor(refRate, time.Duration(refShare*float64(cfg.partDuration())))
	tracedBlocks := (refBlocks*cfg.parts() + 3) / 4 // a quarter of the run's reference requests
	ladderBlocks := make([]int, len(ladderRates))
	need := refBlocks
	for i, rate := range ladderRates {
		ladderBlocks[i] = blocksFor(rate, time.Duration(ladderShare*float64(cfg.duration())))
		if last {
			need += ladderBlocks[i]
		}
	}
	if last && cfg.trace {
		need += tracedBlocks
	}
	probes := pr.takeN(3)
	t0 := time.Now()
	s, err := setupServe(cfg, index, need, o)
	if err != nil {
		return err
	}
	defer s.close()
	o.SetupS = time.Since(t0).Seconds() * speedScale(append(probes, pr.takeN(3)...))
	runtime.GC()

	before := s.srv.Stats()
	a0 := heapAllocs()
	ref, stepProbes := s.probedStep(pr, refRate, refBlocks)
	o.AllocMB = mb(heapAllocs() - a0)
	after := s.srv.Stats()
	// Before the ladder: how far it climbs depends on timing, and every miss
	// it sends grows the store's memory cache.
	o.PeakRSSMB = peakRSSMB()
	s.check(ref, o)
	o.Wall = pick(ref.results, all, latency)
	for i, l := range o.Wall {
		o.Latencies = append(o.Latencies, l*stepProbes.scaleAt(ref.results[i].sched))
	}
	layerMetrics(ref, before, after, speedScale(stepProbes.ms), o.Vals)
	if !last {
		return nil
	}

	maxRPS := 0.0
	if ref.ok() {
		maxRPS = refRate
		for i, rate := range ladderRates {
			st := s.step(rate, ladderBlocks[i])
			s.check(st, o)
			if !st.ok() {
				break
			}
			maxRPS = rate
		}
	}
	o.Vals["loadgen.max_rps"] = maxRPS
	if !cfg.trace {
		return nil
	}
	// Tracing the open loop records each request's spans from the client's
	// timestamps; the server itself runs unchanged.
	t := newTracer()
	st := s.step(refRate, tracedBlocks)
	s.check(st, o)
	for i := range st.results {
		r := &st.results[i]
		t.beginOp()
		root := t.record("serve.request", 0, r.sched, r.end)
		t.record("loadgen.dispatch", root, r.sched, r.sent)
		t.record("http.Client.Do", root, r.sent, r.end)
	}
	o.TracedP50 = median(pick(st.results, all, latency))
	return t.write(cfg.out, cfg.workload)
}

// setupServe generates the part's blocks of traffic with their reference
// outputs (each part draws its own), starts an in-process server behind a
// loopback listener and sends each hot request once, so the measured hot
// requests are cache hits.
func setupServe(cfg runConfig, index, blocks int, o *part) (*serveSession, error) {
	var paper []paperRef
	for _, w := range progs.All() {
		out, err := reference(w.Source, w.Train)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		paper = append(paper, paperRef{w.Source, w.Train, out})
	}
	s := &serveSession{paper: paper, rng: newRand(cfg.seed + uint64(index)<<32), term: 1000}
	for i, p := range paper {
		s.hot = append(s.hot, newRequest(i, server.OptimizeRequest{Program: p.src, Input: p.train,
			Options: &server.RequestOptions{Fold: true}}, p.want))
	}
	// Generate every block now, so no step pays for generation.
	for i := 0; i < blocks; i++ {
		if err := s.nextBlock(); err != nil {
			return nil, err
		}
	}

	dir := filepath.Join(cfg.out, fmt.Sprintf("serve-store-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s.dir = dir
	s.srv = server.New(server.Config{CacheEntries: 1024, StoreDir: dir})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.conns = runtime.NumCPU()
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns}}
	for _, h := range s.hot {
		o.Attempted++
		res := s.send(h, time.Now())
		if res.cache != "miss" {
			o.fail("hot warm-up request: cache %q, want a miss", res.cache)
		}
		s.checkOne(&res, o)
		s.hotBody = append(s.hotBody, res.body)
	}
	return s, nil
}

// reference runs the unoptimized program: the output the service must return.
func reference(src string, input []int64) ([]int64, error) {
	g, err := ir.Build(src)
	if err != nil {
		return nil, err
	}
	res, err := interp.Run(g, interp.Options{Input: input})
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

func (s *serveSession) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
	_ = s.srv.Drain(context.Background()) // every request has completed; nothing is left to drain
	_ = os.RemoveAll(s.dir)               // the store is scratch space for one run
}

// send issues one request and reads the whole response.
func (s *serveSession) send(req *serveRequest, sched time.Time) serveResult {
	r := serveResult{req: req, sched: sched, sent: time.Now()}
	resp, err := s.client.Post(s.ts.URL+"/optimize", "application/json", bytes.NewReader(req.body))
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		r.cache = resp.Header.Get("X-Icbe-Cache")
		r.handlerMS, _ = strconv.ParseFloat(resp.Header.Get("X-Icbe-Elapsed-Ms"), 64)
	}
	r.end, r.err = time.Now(), err
	return r
}

// stepResult is one open-loop step.
type stepResult struct {
	results []serveResult
	// backlogEnd counts requests still outstanding when the schedule ended.
	backlogEnd, backlogMax int
	conns                  int
}

// ok reports whether the step met the latency limit without a backlog.
func (st stepResult) ok() bool {
	return p95(pick(st.results, all, latency)) <= latencyLimit && st.backlogEnd <= 2*st.conns
}

// step sends the next blocks of the queue at rate on a fixed schedule, each
// request from its own goroutine, and waits for all of them. Requests beyond
// the connection limit wait in the client transport: that wait is part of
// their latency, which is measured from the scheduled send time.
func (s *serveSession) step(rate float64, blocks int) stepResult {
	n := min(blocks*blockLen, len(s.queue))
	reqs := s.queue[:n]
	s.queue = s.queue[n:]
	st := stepResult{results: make([]serveResult, n), conns: s.conns}
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(at))
		b := int(outstanding.Add(1))
		st.backlogMax = max(st.backlogMax, b)
		wg.Add(1)
		go func(i int, req *serveRequest) {
			defer wg.Done()
			st.results[i] = s.send(req, at)
			outstanding.Add(-1)
		}(i, req)
	}
	st.backlogEnd = int(outstanding.Load())
	wg.Wait()
	return st
}

// timedProbes are probe times with when each was taken, in order.
type timedProbes struct {
	at []time.Time
	ms []float64
}

// scaleAt is the host-speed scale for a request scheduled at t: from the two
// probes before t and the two after it.
func (p timedProbes) scaleAt(t time.Time) float64 {
	k, _ := slices.BinarySearchFunc(p.at, t, time.Time.Compare)
	return speedScale(p.ms[max(0, k-2):min(len(p.ms), k+2)])
}

// probedStep runs a step while probing host speed every probeEvery from a
// goroutine of its own, so the open loop's schedule never waits for a probe.
func (s *serveSession) probedStep(pr *prober, rate float64, blocks int) (stepResult, timedProbes) {
	const probeEvery = 100 * time.Millisecond
	stop, done := make(chan struct{}), make(chan timedProbes)
	go func() {
		var p timedProbes
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			p.at, p.ms = append(p.at, time.Now()), append(p.ms, pr.take())
			select {
			case <-stop:
				done <- p
				return
			case <-tick.C:
			}
		}
	}()
	st := s.step(rate, blocks)
	close(stop)
	return st, <-done
}

func (s *serveSession) check(st stepResult, o *part) {
	for i := range st.results {
		o.Attempted++
		s.checkOne(&st.results[i], o)
	}
}

// checkOne fails a response that is not a full-tier 200 whose output equals
// the reference output, or a hit whose body differs from the miss that
// filled the cache.
func (s *serveSession) checkOne(r *serveResult, o *part) {
	if r.err != nil || r.status != http.StatusOK {
		o.fail("request: status %d: %v", r.status, r.err)
		return
	}
	var body struct {
		Tier     string  `json:"tier"`
		Degraded bool    `json:"degraded"`
		Output   []int64 `json:"output"`
		RunError string  `json:"run_error"`
	}
	switch err := json.Unmarshal(r.body, &body); {
	case err != nil:
		o.fail("response body: %v", err)
	case body.Tier != "full" || body.Degraded:
		o.fail("response tier %q", body.Tier)
	case body.RunError != "":
		o.fail("run error: %s", body.RunError)
	case !slices.Equal(body.Output, r.req.want):
		o.fail("response output differs from the reference")
	case r.req.hot >= 0 && isHit(r) && !bytes.Equal(r.body, s.hotBody[r.req.hot]):
		o.fail("hit body differs from its miss body")
	}
}

// layerMetrics derives the serving path's per-layer metrics from the
// reference step: client and handler latency split on cache disposition,
// scaled by host speed like the end-to-end latencies, and the server's
// /stats counters over the step.
func layerMetrics(st stepResult, before, after server.StatsSnapshot, scale float64, v map[string]float64) {
	rs := st.results
	v["server.hit_client_ms"] = scale * median(pick(rs, isHit, roundTrip))
	v["server.miss_client_ms"] = scale * median(pick(rs, isMiss, roundTrip))
	v["server.hit_handler_ms"] = scale * median(pick(rs, isHit, handler))
	v["server.miss_handler_ms"] = scale * median(pick(rs, isMiss, handler))
	v["server.transport_ms"] = scale * median(pick(rs, all, transport))
	v["loadgen.late_p95_ms"] = p95(pick(rs, all, late))
	v["loadgen.backlog_max"] = float64(st.backlogMax)
	v["server.attempts"] = median(pick(rs, isMiss, attempts))
	v["server.degraded"] = float64(after.Degraded - before.Degraded)
	v["server.shed"] = float64(after.ShedTotal - before.ShedTotal)
	a, b := after.Store, before.Store
	hits := (a.HitsMemory - b.HitsMemory) + (a.HitsDisk - b.HitsDisk)
	v["store.hits_memory"] = float64(a.HitsMemory - b.HitsMemory)
	v["store.hits_disk"] = float64(a.HitsDisk - b.HitsDisk)
	v["store.misses"] = float64(a.Misses - b.Misses)
	v["store.hit_ratio"] = float64(hits) / float64(hits+a.Misses-b.Misses)
	v["store.summaries_loaded"] = float64(a.SummariesLoaded - b.SummariesLoaded)
	v["store.summaries_saved"] = float64(a.SummariesSaved - b.SummariesSaved)
	v["store.quarantined"] = float64(a.Quarantined - b.Quarantined)
	v["store.io_errors"] = float64(a.IOErrors - b.IOErrors)
}

// attempts counts the ladder attempts a computed response records.
func attempts(r *serveResult) float64 {
	var body struct {
		Attempts []json.RawMessage `json:"attempts"`
	}
	_ = json.Unmarshal(r.body, &body) // checkOne already failed an undecodable body
	return float64(len(body.Attempts))
}
