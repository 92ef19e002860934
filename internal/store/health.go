package store

import (
	"sync"
	"time"
)

// healthState is the store circuit breaker's state. The breaker guards every
// disk operation: a run of consecutive failed I/O attempts trips it to
// degraded, pinning the service to compute-only serving (reads and writes
// are skipped wholesale, never attempted and never block a request). After a cooldown
// the breaker goes half-open and admits a single trial operation; success
// closes it, failure re-trips it with a doubled (capped) cooldown.
//
// Reads and writes keep separate runs: a disk that still writes may have
// lost read access, and one that still reads may be full, so a success of
// one kind does not clear a run of failures of the other.
//
// Corruption is NOT a health signal: a quarantined entry means the bytes
// were bad, not that the disk is failing, so verify failures do not count
// against the breaker.
type healthState int

const (
	healthOK healthState = iota
	healthDegraded
	healthHalfOpen
)

func (s healthState) String() string {
	switch s {
	case healthOK:
		return "ok"
	case healthDegraded:
		return "degraded"
	case healthHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// opKind tells the breaker which run a disk operation belongs to.
type opKind int

const (
	opRead opKind = iota
	opWrite
)

type health struct {
	mu          sync.Mutex
	threshold   int           // consecutive failures to trip
	base        time.Duration // initial cooldown
	cap         time.Duration // cooldown ceiling
	now         func() time.Time
	state       healthState
	consecutive [2]int        // failed attempts in a row, by opKind
	cooldown    time.Duration // next cooldown to apply on a trip
	until       time.Time     // when degraded may go half-open
	trialOut    bool          // a half-open trial operation is in flight
	transitions int64         // ok/half-open -> degraded trips
}

func newHealth(threshold int, base, cap time.Duration, now func() time.Time) *health {
	return &health{threshold: threshold, base: base, cap: cap, now: now, cooldown: base}
}

// allow reports whether a disk operation may proceed. In the degraded state
// it flips to half-open once the cooldown has elapsed and admits exactly one
// trial; concurrent callers are refused until that trial reports back.
func (h *health) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case healthOK:
		return true
	case healthDegraded:
		if h.now().Before(h.until) {
			return false
		}
		h.state = healthHalfOpen
		h.trialOut = true
		return true
	case healthHalfOpen:
		if h.trialOut {
			return false
		}
		h.trialOut = true
		return true
	}
	return false
}

// success records a completed disk operation: that kind's failures reset,
// a half-open trial closes the breaker and restores the base cooldown.
func (h *health) success(kind opKind) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecutive[kind] = 0
	if h.state == healthHalfOpen {
		h.state = healthOK
		h.trialOut = false
		h.cooldown = h.base
	}
}

// failure records a failed disk attempt. A half-open trial failure re-trips
// immediately with a doubled cooldown; in the ok state the breaker trips
// after threshold consecutive failures of one kind.
func (h *health) failure(kind opKind) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case healthHalfOpen:
		// Double before tripping so the new cooldown governs this trip.
		if h.cooldown *= 2; h.cooldown > h.cap {
			h.cooldown = h.cap
		}
		h.trip()
	case healthOK:
		h.consecutive[kind]++
		if h.consecutive[kind] >= h.threshold {
			h.trip()
		}
	}
}

// trip moves to degraded; callers hold h.mu.
func (h *health) trip() {
	h.state = healthDegraded
	h.trialOut = false
	h.consecutive = [2]int{}
	h.until = h.now().Add(h.cooldown)
	h.transitions++
}

func (h *health) snapshot() (state string, transitions int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state.String(), h.transitions
}
