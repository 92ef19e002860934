package restructure

import (
	"reflect"
	"time"
)

// DriverStats exposes the two-phase driver's cost counters so the effect of
// parallel analysis, clone avoidance and the oracles is measurable from
// reports and benchmarks.
//
// This is the one declaration of the counters: icbe.DriverStats is this
// type, and its JSON encoding (field order and names, durations as integer
// nanoseconds) is the wire form of `icbe -json`, /optimize bodies and the
// /stats driver aggregate. Every field carries a stat class:
//
//   - stat:"result" fields are pure functions of the program and the
//     options, identical for every worker count and memo warmth;
//   - stat:"telemetry" fields (wall clocks, Workers, memo warmth) vary from
//     run to run. Scrub zeroes them before a body is served or cached.
//
// A new integer or duration counter is one field with a json name and a
// stat class: Add sums it and Scrub honours its class without further
// edits. TestDriverStatsClasses fails on a field that breaks this.
type DriverStats struct {
	// Workers is the analysis-phase worker count actually used.
	Workers int `json:"workers" stat:"telemetry"`
	// Rounds counts snapshot rounds (one concurrent analysis phase plus
	// one serial apply phase each).
	Rounds int `json:"rounds" stat:"result"`
	// Analyses counts AnalyzeBranch runs; Reanalyses is the subset queued
	// again because an applied restructuring invalidated the snapshot
	// result (the analysis had visited a changed node).
	Analyses   int `json:"analyses" stat:"result"`
	Reanalyses int `json:"reanalyses" stat:"result"`
	// Clones counts program copies: one defensive deep copy of the input
	// (ir.Clone) plus one copy-on-write fork (ir.Fork) per transactional
	// attempt, correlation applies and fold attempts alike. ClonesAvoided
	// counts analyzed conditionals that needed no copy because no
	// restructuring was attempted for them.
	Clones        int `json:"clones" stat:"result"`
	ClonesAvoided int `json:"clones_avoided" stat:"result"`
	// Failures counts contained per-conditional failures by category,
	// keyed by FailureKind.String() ("panic", "validate", "diff-mismatch",
	// "op-growth", "timeout", "check", "fold"); nil when the run had none.
	// Every counted failure was rolled back and carries a CondReport entry
	// with its BranchFailure.
	Failures map[string]int `json:"failures,omitempty" stat:"result"`
	// SNEMemoEntries and SNEMemoHits expose the cross-conditional summary
	// memo (analysis.SummaryMemo): committed records at the end of the run
	// and summaries replayed instead of re-propagated. CacheBytes is the
	// memo's footprint. They depend on what the memo held when the run
	// started.
	SNEMemoEntries int   `json:"sne_memo_entries" stat:"telemetry"`
	SNEMemoHits    int64 `json:"sne_memo_hits" stat:"telemetry"`
	CacheBytes     int64 `json:"cache_bytes" stat:"telemetry"`
	// SeedsInjected counts portable records accepted into the memo from
	// DriverOptions.SeedRecords before the first round: the records that
	// survived verify-on-read, as SummaryMemo.Inject counts them. Seeds
	// change warmth, never results.
	SeedsInjected int `json:"seeds_injected" stat:"telemetry"`
	// QueriesReused counts node–query pairs reconstructed from summary
	// records instead of re-propagated; SubtreesInvalidated counts summary
	// records the per-round Commits dropped because their recorded region
	// intersected a dirty set. Both are deterministic across worker counts
	// (replays come from the round-frozen memo view) but depend on what
	// the memo held when the run started.
	QueriesReused       int   `json:"queries_reused" stat:"telemetry"`
	SubtreesInvalidated int64 `json:"subtrees_invalidated" stat:"telemetry"`
	// PairsTotal mirrors DriverResult.PairsTotal (replayed pairs count in
	// both).
	PairsTotal int `json:"pairs_total" stat:"result"`
	// ReuseRate is the incremental engine's hit rate:
	// QueriesReused / PairsTotal, 0 when no pair was settled.
	ReuseRate float64 `json:"reuse_rate" stat:"telemetry"`
	// VerifyRuns counts the differential oracle's comparisons, one per
	// input per gated attempt (DriverOptions.Verify, and every fold);
	// VerifyWall is the interpreter time they took. The working program's
	// runs are carried across attempts, so a comparison may run only the
	// fork.
	VerifyRuns int           `json:"verify_runs" stat:"result"`
	VerifyWall time.Duration `json:"verify_wall_ns" stat:"telemetry"`
	// CheckRuns counts static check-layer analyses (DriverOptions.Check):
	// the initial baseline and one per gated apply fork; the fold pass's
	// analyses are timed in FoldWall instead. CheckWall is their summed wall
	// time.
	CheckRuns int           `json:"check_runs" stat:"result"`
	CheckWall time.Duration `json:"check_wall_ns" stat:"telemetry"`
	// SCCPAgreements and SCCPDisagreements count cross-checked conditionals
	// whose demand-driven full answer the SCCP oracle independently
	// confirmed or contradicted. Disagreements are contained FailCheck
	// refusals; a healthy run has zero. SCCPVacuous counts conditionals the
	// oracle proved unreachable (neither confirmed nor graded), and
	// SCCPDecided counts every non-vacuous conditional with a full
	// demand-driven answer — the recall denominator.
	SCCPAgreements    int `json:"sccp_agreements" stat:"result"`
	SCCPDisagreements int `json:"sccp_disagreements" stat:"result"`
	SCCPVacuous       int `json:"sccp_vacuous" stat:"result"`
	SCCPDecided       int `json:"sccp_decided" stat:"result"`
	// SCCPRecall is the fraction of decided claims the oracle could grade:
	// (agreements + disagreements) / decided, 0 when nothing was decided.
	SCCPRecall float64 `json:"sccp_recall" stat:"result"`
	// SCCPResidual counts analyzable branches of the final program whose
	// outcome the oracle still decides — constant branches ICBE left in
	// place (the recall gap of the demand-driven analysis).
	SCCPResidual int `json:"sccp_residual" stat:"result"`
	// CheckFindingsPre and CheckFindingsPost count invariant lint findings
	// on the input and final working programs (both 0 for sound inputs).
	CheckFindingsPre  int `json:"check_findings_pre" stat:"result"`
	CheckFindingsPost int `json:"check_findings_post" stat:"result"`
	// FoldAttempted counts fold-pass rewrite attempts (DriverOptions.Fold):
	// forks the fold rewriter actually changed, gates and all.
	// FoldApplied is the subset that survived every gate and was adopted;
	// FoldDuplicated counts the in-edges edge-split folds redirected across
	// adopted attempts (the duplication-based eliminations, degenerated to
	// redirections). The pass adopts folds in deterministic fact-table
	// order.
	FoldAttempted  int `json:"fold_attempted" stat:"result"`
	FoldApplied    int `json:"fold_applied" stat:"result"`
	FoldDuplicated int `json:"fold_duplicated" stat:"result"`
	// SCCPResidualBefore and SCCPResidualAfter bracket the fold pass: the
	// oracle's residual constant-branch count entering the pass and after
	// its last adopted fold. Both stay zero when the pass is disabled.
	SCCPResidualBefore int `json:"sccp_residual_before" stat:"result"`
	SCCPResidualAfter  int `json:"sccp_residual_after" stat:"result"`
	// FoldReduction is the fold pass's bite:
	// (SCCPResidualBefore − SCCPResidualAfter) / SCCPResidualBefore,
	// 0 when nothing was residual to begin with.
	FoldReduction float64 `json:"fold_reduction" stat:"result"`
	// AnalysisWall and ApplyWall sum the wall-clock time of the analysis
	// phases and the serial apply phases; FoldWall is the fold pass's.
	AnalysisWall time.Duration `json:"analysis_wall_ns" stat:"telemetry"`
	ApplyWall    time.Duration `json:"apply_wall_ns" stat:"telemetry"`
	FoldWall     time.Duration `json:"fold_wall_ns" stat:"telemetry"`
}

// Add accumulates another run's counters into s. Workers keeps the
// maximum, Failures merges by kind, the three ratios are recomputed from
// the summed counts (a ratio does not aggregate by addition) and every
// other field sums.
func (s *DriverStats) Add(o DriverStats) {
	workers := max(s.Workers, o.Workers)
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		if f := dst.Field(i); f.Kind() == reflect.Int || f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + src.Field(i).Int())
		}
	}
	s.Workers = workers
	for k, n := range o.Failures {
		if s.Failures == nil {
			s.Failures = make(map[string]int, len(o.Failures))
		}
		s.Failures[k] += n
	}
	s.setRatios()
}

// Scrub zeroes every telemetry field. What remains is a pure function of
// the program and the options, so a scrubbed record can be served and
// cached byte for byte.
func (s *DriverStats) Scrub() {
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		if v.Type().Field(i).Tag.Get("stat") == "telemetry" {
			v.Field(i).SetZero()
		}
	}
}

// setRatios computes SCCPRecall, FoldReduction and ReuseRate from their
// counts, each 0 when its denominator is.
func (s *DriverStats) setRatios() {
	s.SCCPRecall, s.FoldReduction, s.ReuseRate = 0, 0, 0
	if s.SCCPDecided > 0 {
		s.SCCPRecall = float64(s.SCCPAgreements+s.SCCPDisagreements) / float64(s.SCCPDecided)
	}
	if s.SCCPResidualBefore > 0 {
		s.FoldReduction = float64(s.SCCPResidualBefore-s.SCCPResidualAfter) / float64(s.SCCPResidualBefore)
	}
	if s.PairsTotal > 0 {
		s.ReuseRate = float64(s.QueriesReused) / float64(s.PairsTotal)
	}
}

// countFailure tallies a contained failure in the driver's stats.
func (s *DriverStats) countFailure(k FailureKind) {
	if s.Failures == nil {
		s.Failures = make(map[string]int)
	}
	s.Failures[k.String()]++
}
