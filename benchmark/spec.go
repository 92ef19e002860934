package main

// The workload and metric tables. BENCHMARK.json at the repository root
// declares the same names, units, directions and bounds; benchmark_test.go
// fails when the two disagree.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"paper-suite", "the seven paper programs at the service's full-tier options; small programs, so the check, fold and verify gates dominate"},
	{"scale-cold", "cold optimize of hub-and-leaf Scale programs; a whole-program clone and validate per apply, high root-record replay reuse"},
	{"recursion", "cold optimize of cyclic call graphs; entry/exit splitting and zero replay reuse, the opposite of scale-cold"},
	{"analyze-scale", "Table 2 sweep: analysis.New plus AnalyzeBranch on every analyzable branch of large Scale programs; no apply, no gates"},
	{"serve-mixed", "in-process server, open loop, an assumed mix (no measured traffic behind it): 60% cache hits on paper programs, 40% distinct misses that compute and write the store"},
}

// metricSpec declares one metric. Bound is the share of the parent's median
// by which a metric may worsen before a change is a regression; -compare
// applies it to every metric that has one. BENCHMARK.json carries the bounds
// of the end-to-end metrics only: its schema gives per-layer metrics none.
// Exact marks a per-layer metric that is deterministic for a given seed, so
// -compare requires equal values instead of applying a bound.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd holds the metrics every workload reports in an untraced run;
// times are scaled by host speed (see host.go). Each bound is at least three
// times the largest spread (quartile distance over median) of ten runs with
// ten seeds on a 2-vCPU virtual machine, in two sets; see README.md.
var endToEnd = []metricSpec{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer holds the metrics a traced run reports. A layer is the module the
// measured call lives in; metrics of a layer a workload does not reach read 0.
var perLayer = []metricSpec{
	{Name: "minic.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "minic.sema_ms", Unit: "ms", Better: "lower"},
	{Name: "minic.tokens", Unit: "count", Better: "lower", Exact: true},
	{Name: "ir.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "ir.code_growth_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "restructure.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "restructure.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "restructure.self_ms", Unit: "ms", Better: "lower"},
	{Name: "restructure.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "restructure.applied", Unit: "count", Better: "higher", Exact: true},
	{Name: "restructure.clones", Unit: "count", Better: "lower", Exact: true},
	{Name: "restructure.clones_avoided", Unit: "count", Better: "higher", Exact: true},
	{Name: "restructure.rollbacks", Unit: "count", Better: "lower", Exact: true},
	{Name: "restructure.skipped", Unit: "count", Better: "lower", Exact: true},
	{Name: "analysis.index_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "analysis.pairs_per_ms", Unit: "1/ms", Better: "higher"},
	{Name: "analysis.driver_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.analyses", Unit: "count", Better: "lower", Exact: true},
	{Name: "analysis.reanalyses", Unit: "count", Better: "lower", Exact: true},
	{Name: "analysis.reuse_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "analysis.memo_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "analysis.memo_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "analysis.subtrees_invalidated", Unit: "count", Better: "lower", Exact: true},
	{Name: "check.gate_ms", Unit: "ms", Better: "lower"},
	{Name: "check.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "check.sccp_ms", Unit: "ms", Better: "lower"},
	{Name: "check.lint_ms", Unit: "ms", Better: "lower"},
	{Name: "check.agreements", Unit: "count", Better: "higher", Exact: true},
	{Name: "check.disagreements", Unit: "count", Better: "lower", Exact: true},
	{Name: "fold.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "fold.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "fold.attempted", Unit: "count", Better: "lower", Exact: true},
	{Name: "fold.applied", Unit: "count", Better: "higher", Exact: true},
	{Name: "fold.adopt_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "verify.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "interp.ref_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.cond_execs_before", Unit: "count", Better: "lower", Exact: true},
	{Name: "interp.cond_execs_after", Unit: "count", Better: "lower", Exact: true},
	{Name: "interp.ops_before", Unit: "count", Better: "lower", Exact: true},
	{Name: "interp.ops_after", Unit: "count", Better: "lower", Exact: true},
	{Name: "interp.dyn_cond_removed_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "interp.dyn_ops_removed_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "server.hit_client_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server.miss_client_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server.hit_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms", Unit: "ms", Better: "lower"},
	{Name: "server.attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.degraded", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.shed", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.hits_memory", Unit: "count", Better: "higher", Exact: true},
	{Name: "store.hits_disk", Unit: "count", Better: "higher", Exact: true},
	{Name: "store.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "store.summaries_loaded", Unit: "count", Better: "higher", Exact: true},
	{Name: "store.summaries_saved", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.quarantined", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.io_errors", Unit: "count", Better: "lower", Exact: true},
	// Ladder rates rise by a factor of about 1.5, so falling one step loses
	// 33% and the bound allows exactly one step.
	{Name: "loadgen.max_rps", Unit: "1/s", Better: "higher", Bound: 0.34},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	// The host: the median probe time, and the untraced latencies as
	// measured, before scaling by host speed.
	{Name: "bench.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.wall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.wall_p95_ms", Unit: "ms", Better: "lower"},
}
