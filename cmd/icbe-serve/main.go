// Command icbe-serve runs the resilient optimization service: a long-running
// HTTP/JSON front end that compiles and optimizes MiniC programs with
// admission control and per-request deadlines (see internal/server). Every
// answer is either the checked optimization (tier "full": shadow execution
// and the static check layer on, every adopted change gated) or the compiled
// program echoed back (tier "passthrough") when that attempt times out or
// fails.
//
// Usage:
//
//	icbe-serve [flags]
//
// Endpoints:
//
//	POST /optimize        {"program": "...", "deadline_ms": 2000, "input": [1,2]}
//	POST /optimize-batch  {"items": [{...}, {...}]} — per-item isolation
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining)
//	GET  /stats           aggregate service statistics
//
// Analysis runs in-process: -workers sets how many goroutines the driver
// analyzes one request's conditionals with.
//
// SIGTERM or SIGINT starts a graceful drain: admission stops, in-flight
// requests finish by their deadlines (cancelled cooperatively after
// -drain-timeout), then the process exits 0. A second signal exits
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"icbe/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxInFlight = flag.Int("max-inflight", 4, "concurrent optimizations")
		maxQueue    = flag.Int("max-queue", 64, "admission queue depth beyond in-flight; excess is shed 429")
		maxReqBytes = flag.Int64("max-request-bytes", 1<<20, "request body cap; larger requests are shed 413")
		maxMemBytes = flag.Int64("max-inflight-bytes", 256<<20, "admitted memory-estimate cap; excess is shed 429")
		deadline    = flag.Duration("deadline", 5*time.Second, "default per-request optimization deadline")
		maxDeadline = flag.Duration("max-deadline", 30*time.Second, "clamp on client-requested deadlines")
		workers     = flag.Int("workers", 2, "driver analysis workers per request")
		drainTO     = flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight work on SIGTERM before cooperative cancellation")
		cacheSize   = flag.Int("cache-entries", 1024, "in-memory result cache entries; 0 disables the memory layer")
		storeDir    = flag.String("store-dir", "", "durable result+summary store directory; empty disables the disk layer")
		batchItems  = flag.Int("max-batch-items", 16, "item cap per /optimize-batch request")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: icbe-serve [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	svc := server.New(server.Config{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		MaxRequestBytes:  *maxReqBytes,
		MaxInFlightBytes: *maxMemBytes,
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		Workers:          *workers,
		CacheEntries:     *cacheSize,
		StoreDir:         *storeDir,
		MaxBatchItems:    *batchItems,
	})
	if snap := svc.Stats(); *storeDir != "" && (snap.Store == nil || !snap.Store.DiskEnabled) {
		// A broken store directory degrades the service to compute-only; it
		// must never stop it from starting.
		log.Printf("icbe-serve: warning: durable store at %s unavailable, serving compute-only", *storeDir)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("icbe-serve: listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		log.Fatalf("icbe-serve: %v", err)
	case sig := <-sigCh:
		log.Printf("icbe-serve: %v received, draining (grace %v; signal again to force exit)", sig, *drainTO)
	}
	go func() {
		sig := <-sigCh
		log.Printf("icbe-serve: second %v, exiting immediately", sig)
		os.Exit(130)
	}()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		log.Printf("icbe-serve: drain grace expired; in-flight work cancelled cooperatively")
	}
	// In-flight handlers have all returned; shut the listener down.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("icbe-serve: shutdown: %v", err)
	}
	log.Printf("icbe-serve: drained cleanly")
}
