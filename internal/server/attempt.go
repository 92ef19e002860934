package server

import (
	"context"
	"fmt"
	"time"

	"icbe"
)

// Tier labels what produced a response. There are exactly two: an
// optimization whose every adopted change passed every gate, or the compiled
// program echoed back. Nothing unchecked is ever served: a tier that turned
// an oracle off would serve exactly the restructurings that oracle exists to
// refuse.
type Tier int

const (
	// TierFull runs the request's options with both oracles on:
	// differential shadow execution (Verify) and the static check layer
	// (Check). A conditional either oracle refuses is rolled back and
	// counted in the attempt's failures; the request still answers full.
	TierFull Tier = iota
	// TierPassthrough performs no optimization at all: the compiled program
	// is echoed back. It answers when the full-tier attempt times out or
	// fails, needs no budget, and cannot fail.
	TierPassthrough
)

func (t Tier) String() string {
	if t == TierFull {
		return "full"
	}
	return "passthrough"
}

// minAttemptBudget is the smallest deadline slice worth starting the
// full-tier attempt with; below it the request passes through straight away.
const minAttemptBudget = 2 * time.Millisecond

// Attempt records one tier's outcome for the response's attempts trace, so a
// passthrough response shows why the full tier did not answer. It carries no
// wall time: response bodies are cacheable content-addressed artifacts, and
// every field in them must be a pure function of (program, request shape).
// Timing travels in the X-Icbe-Elapsed-Ms response header instead.
type Attempt struct {
	Tier string `json:"tier"`
	// Outcome is "ok", "error" (the optimizer returned an error), "timeout"
	// (the attempt's deadline slice expired), or "panic" (a panic was
	// contained at the request boundary).
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Failures holds the attempt's contained per-branch failure counts by
	// kind, even when the attempt succeeded.
	Failures map[string]int `json:"failures,omitempty"`
}

// attemptResult is the terminal outcome of one request.
type attemptResult struct {
	tier     Tier
	prog     *icbe.Program // optimized program (the input program for passthrough)
	report   *icbe.Report  // nil for passthrough
	attempts []Attempt
}

// optimize serves one admitted request: a single full-tier attempt on half
// the remaining deadline, so the passthrough answer always has time to
// respond. The attempt timing out or failing answers passthrough, as does a
// slice too small to start it with.
func optimize(ctx context.Context, prog *icbe.Program, opts icbe.Options) *attemptResult {
	pass := Attempt{Tier: TierPassthrough.String(), Outcome: "ok"}
	budget := attemptBudget(ctx)
	if budget < minAttemptBudget {
		return &attemptResult{tier: TierPassthrough, prog: prog, attempts: []Attempt{pass}}
	}
	opts.Verify, opts.Check = true, true
	actx, cancel := context.WithTimeout(ctx, budget)
	opt, rep, err, panicked := optimizeAttempt(actx, prog, opts)
	expired := actx.Err() != nil
	cancel()

	a := Attempt{Tier: TierFull.String(), Outcome: "ok"}
	if rep != nil {
		a.Failures = rep.Stats.Failures
	}
	switch {
	case panicked || (err != nil && rep == nil):
		// A panic contained at the request boundary (either by our
		// recover or by icbe's): the process survives, this request
		// passes through.
		a.Outcome = "panic"
	case err != nil:
		a.Outcome = "error"
	case expired:
		a.Outcome = "timeout"
	}
	if err != nil {
		a.Error = err.Error()
	}
	if a.Outcome == "ok" {
		return &attemptResult{tier: TierFull, prog: opt, report: rep, attempts: []Attempt{a}}
	}
	return &attemptResult{tier: TierPassthrough, prog: prog, attempts: []Attempt{a, pass}}
}

// attemptBudget slices the request's remaining deadline for the full-tier
// attempt: half of what is left, so the passthrough answer always has
// budget. A context without a deadline gets an unsliced attempt bounded only
// by cancellation.
func attemptBudget(ctx context.Context) time.Duration {
	deadline, ok := ctx.Deadline()
	if !ok {
		return time.Hour
	}
	return time.Until(deadline) / 2
}

// optimizeAttempt runs the optimization with crash-only isolation: a panic
// escaping the optimizer (which already recovers internally) is contained
// here and reported as a failed attempt, never as a dead process.
func optimizeAttempt(ctx context.Context, prog *icbe.Program, opts icbe.Options) (op *icbe.Program, rep *icbe.Report, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			op, rep, err, panicked = nil, nil, fmt.Errorf("icbe-serve: contained panic during attempt: %v", r), true
		}
	}()
	op, rep, err = prog.OptimizeContext(ctx, opts)
	return op, rep, err, false
}
