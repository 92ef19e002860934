package server

import (
	"context"
	"fmt"
	"sync/atomic"
)

// shedError is a terminal load-shedding refusal: the request never reaches
// the optimizer and the client is told how to retry.
type shedError struct {
	status     int    // HTTP status (429 for pressure, 413 for oversized)
	reason     string // shed-counter key: "queue", "memory", "queue-timeout", "draining", "oversized"
	retryAfter int    // Retry-After seconds (0 = omit)
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// admission is the bounded front door: at most maxInFlight requests optimize
// concurrently, at most maxQueue more wait for a slot, and the estimated
// memory footprint of everything admitted stays under maxBytes. Anything
// beyond is shed immediately — the queue can never grow without bound and a
// burst degrades into fast 429s instead of memory pressure.
type admission struct {
	sem      chan struct{}
	queued   atomic.Int64
	bytes    atomic.Int64
	maxQueue int64
	maxBytes int64
}

func newAdmission(maxInFlight, maxQueue int, maxBytes int64) *admission {
	return &admission{
		sem:      make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
		maxBytes: maxBytes,
	}
}

// estimateBytes is the admission-time memory estimate for one request: the
// compiled program, the forks its applies and folds run on, and the
// analysis state, all roughly proportional to source size.
func estimateBytes(srcLen int) int64 {
	return int64(srcLen)*32 + 64<<10
}

// admit blocks until a worker slot is free (bounded by the queue limits) and
// returns a release function, or returns a shedError. The context bounds the
// queue wait: a request whose deadline expires while queued is shed rather
// than started late.
func (a *admission) admit(ctx context.Context, est int64) (func(), *shedError) {
	if b := a.bytes.Add(est); b > a.maxBytes {
		a.bytes.Add(-est)
		return nil, &shedError{status: 429, reason: "memory", retryAfter: 1,
			msg: fmt.Sprintf("in-flight memory estimate %d + %d exceeds %d bytes", b-est, est, a.maxBytes)}
	}
	if q := a.queued.Add(1); q > a.maxQueue {
		a.queued.Add(-1)
		a.bytes.Add(-est)
		return nil, &shedError{status: 429, reason: "queue", retryAfter: a.retryAfterSeconds(),
			msg: fmt.Sprintf("admission queue full (%d waiting)", q-1)}
	}
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		return func() {
			<-a.sem
			a.bytes.Add(-est)
		}, nil
	case <-ctx.Done():
		a.queued.Add(-1)
		a.bytes.Add(-est)
		return nil, &shedError{status: 429, reason: "queue-timeout", retryAfter: a.retryAfterSeconds(),
			msg: "request deadline expired while queued"}
	}
}

// retryAfterSeconds scales the Retry-After hint with the backlog: one second
// per full queue's worth of waiting work, at least one.
func (a *admission) retryAfterSeconds() int {
	depth := a.queued.Load()
	slots := int64(cap(a.sem))
	if slots <= 0 {
		return 1
	}
	s := int(depth/slots) + 1
	if s > 30 {
		s = 30
	}
	return s
}

// gauges reports the current queue depth, in-flight count, and admitted
// memory estimate.
func (a *admission) gauges() (queued int64, inFlight int, bytes int64) {
	return a.queued.Load(), len(a.sem), a.bytes.Load()
}
