package server

import (
	"context"
	"fmt"
	"time"

	"icbe"
	"icbe/internal/analysis"
)

// Tier is one rung of the degradation ladder, ordered from the full-fidelity
// configuration down to a parse-and-echo passthrough. A request starts at the
// service's current ceiling (TierFull unless a circuit breaker has pinned it
// lower) and, on a failed or timed-out attempt, retries one rung cheaper
// with capped exponential backoff. The bottom rung cannot fail, so every
// admitted request reaches a terminal response. A summary memo seeded from
// the store (SummaryMemo.Inject, or equivalently Options.SeedRecords) only
// warms an attempt: it never changes the rung or the response bytes.
type Tier int

const (
	// TierFull runs both oracles: differential shadow execution (Verify)
	// and the static check layer with fatal refusals (CheckFatal).
	TierFull Tier = iota
	// TierCheckOnly drops the shadow oracle but keeps the static check
	// layer, still fatal on refusal.
	TierCheckOnly
	// TierNoOracles runs the plain interprocedural optimization with no
	// gating oracles beyond ir.Validate.
	TierNoOracles
	// TierIntraOnly falls back to the cheap intraprocedural baseline
	// analysis.
	TierIntraOnly
	// TierPassthrough performs no optimization at all: the compiled program
	// is echoed back. It needs no budget and cannot fail.
	TierPassthrough
)

func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierCheckOnly:
		return "check-only"
	case TierNoOracles:
		return "no-oracles"
	case TierIntraOnly:
		return "intra-only"
	case TierPassthrough:
		return "passthrough"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// configure maps the tier onto the optimizer's option set. The fold pass is
// a full-tier feature: it gates every fold on the shadow oracle and a CCP
// re-check, so any rung that drops an oracle drops the fold too.
func (t Tier) configure(o icbe.Options) icbe.Options {
	fold := o.Fold
	o.Verify, o.Check, o.CheckFatal, o.Fold = false, false, false, false
	switch t {
	case TierFull:
		o.Verify, o.Check, o.CheckFatal = true, true, true
		o.Fold = fold
	case TierCheckOnly:
		o.Check, o.CheckFatal = true, true
	case TierNoOracles:
		// plain interprocedural run
	case TierIntraOnly:
		o.Interprocedural = false
	}
	return o
}

// minAttemptBudget is the smallest deadline slice worth starting an
// optimization attempt with; below it the ladder jumps straight to
// passthrough.
const minAttemptBudget = 2 * time.Millisecond

// Attempt records one ladder rung's outcome for the response's attempts
// trace, so a degraded response shows how it got there. It carries no wall
// time: response bodies are cacheable content-addressed artifacts, and every
// field in them must be a pure function of (program, request shape). Timing
// travels in the X-Icbe-Elapsed-Ms response header instead.
type Attempt struct {
	Tier string `json:"tier"`
	// Outcome is "ok", "error" (the optimizer returned an error, e.g. a
	// fatal check refusal), "timeout" (the attempt's deadline slice
	// expired), or "panic" (a panic was contained at the request boundary).
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Failures holds the attempt's contained per-branch failure counts by
	// kind, even when the attempt succeeded.
	Failures map[string]int `json:"failures,omitempty"`
}

// ladderResult is the terminal outcome of one request's descent.
type ladderResult struct {
	tier     Tier
	prog     *icbe.Program // optimized program (the input program for passthrough)
	report   *icbe.Report  // nil for passthrough
	attempts []Attempt
	// memo is the summary memo the winning attempt ran with (nil without a
	// memo factory); its pristine records feed the durable summary store.
	memo *analysis.SummaryMemo
	// kinds aggregates every failure kind observed across the attempts —
	// contained driver failures plus the server-level "panic"/"timeout"
	// classifications — and feeds the per-kind circuit breakers.
	kinds map[string]int
	// retries counts rungs descended past the starting tier.
	retries int
}

// runLadder descends the degradation ladder for one admitted request. The
// context carries the request deadline; each attempt gets half the remaining
// budget so the ladder always reaches passthrough with time to respond.
// memoFor, when non-nil, supplies each attempt a fresh summary memo (seeded
// from the store): fresh per attempt, because a failed attempt may have
// committed partial rounds that must not leak into the next rung's replay.
func (s *Server) runLadder(ctx context.Context, prog *icbe.Program, base icbe.Options, start Tier, memoFor func() *analysis.SummaryMemo) *ladderResult {
	lr := &ladderResult{kinds: make(map[string]int)}
	backoff := s.cfg.BackoffBase
	for tier := start; ; tier++ {
		if tier >= TierPassthrough {
			lr.tier, lr.prog = TierPassthrough, prog
			lr.attempts = append(lr.attempts, Attempt{Tier: TierPassthrough.String(), Outcome: "ok"})
			return lr
		}
		budget := attemptBudget(ctx)
		if budget < minAttemptBudget {
			// Not enough deadline left for a real attempt: the remaining
			// rungs are skipped, passthrough answers.
			lr.retries++
			continue
		}
		if memoFor != nil {
			base.SummaryMemo = memoFor()
		}
		actx, cancel := context.WithTimeout(ctx, budget)
		opt, rep, err, panicked := optimizeAttempt(actx, prog, tier.configure(base))
		expired := actx.Err() != nil
		cancel()

		a := Attempt{Tier: tier.String(), Outcome: "ok"}
		if rep != nil {
			a.Failures = rep.Stats.Failures
			for k, n := range rep.Stats.Failures {
				lr.kinds[k] += n
			}
		}
		switch {
		case panicked || (err != nil && rep == nil):
			// A panic contained at the request boundary (either by our
			// recover or by icbe's): the process survives, this request
			// degrades.
			a.Outcome = "panic"
			lr.kinds["panic"]++
		case err != nil:
			// The optimizer refused the run (fatal check refusal); the
			// contained kinds were merged above.
			a.Outcome = "error"
		case expired:
			a.Outcome = "timeout"
			lr.kinds["timeout"]++
		}
		if err != nil {
			a.Error = err.Error()
		}
		lr.attempts = append(lr.attempts, a)
		if a.Outcome == "ok" {
			lr.tier, lr.prog, lr.report, lr.memo = tier, opt, rep, base.SummaryMemo
			return lr
		}
		lr.retries++
		s.sleepBackoff(ctx, backoff)
		if backoff *= 2; backoff > s.cfg.BackoffCap {
			backoff = s.cfg.BackoffCap
		}
	}
}

// attemptBudget slices the request's remaining deadline for one attempt:
// half of what is left, so later rungs (and the final response) always have
// budget. A context without a deadline gets an unsliced attempt bounded only
// by cancellation.
func attemptBudget(ctx context.Context) time.Duration {
	deadline, ok := ctx.Deadline()
	if !ok {
		return time.Hour
	}
	return time.Until(deadline) / 2
}

// optimizeAttempt runs one optimization attempt with crash-only isolation:
// a panic escaping the optimizer (which already recovers internally) is
// contained here and reported as a failed attempt, never as a dead process.
func optimizeAttempt(ctx context.Context, prog *icbe.Program, opts icbe.Options) (op *icbe.Program, rep *icbe.Report, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			op, rep, err, panicked = nil, nil, fmt.Errorf("icbe-serve: contained panic during attempt: %v", r), true
		}
	}()
	op, rep, err = prog.OptimizeContext(ctx, opts)
	return op, rep, err, false
}

// sleepBackoff waits out the ladder's retry backoff, cut short by the
// request deadline.
func (s *Server) sleepBackoff(ctx context.Context, d time.Duration) {
	if d <= 0 || ctx.Err() != nil {
		return
	}
	if s.cfg.sleep != nil {
		s.cfg.sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
