package randprog_test

import (
	"testing"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

// TestScaleDeterministic: equal seeds yield byte-equal programs, different
// seeds differ.
func TestScaleDeterministic(t *testing.T) {
	a := randprog.Scale(7, randprog.ScaleConfig{Leaves: 10, LeafStmts: 20, Hubs: 4})
	b := randprog.Scale(7, randprog.ScaleConfig{Leaves: 10, LeafStmts: 20, Hubs: 4})
	if a != b {
		t.Fatal("same seed produced different programs")
	}
	if c := randprog.Scale(8, randprog.ScaleConfig{Leaves: 10, LeafStmts: 20, Hubs: 4}); c == a {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestScaleShape: the default configuration compiles and meets the
// adversarial-scale floor the stress benchmark advertises — at least 100k
// ICFG nodes across at least 100 procedures.
func TestScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ~100k-node program")
	}
	src := randprog.Scale(1, randprog.ScaleConfig{})
	p, err := ir.Build(src)
	if err != nil {
		t.Fatalf("default scale program does not compile: %v", err)
	}
	if n := p.NumNodes(); n < 100_000 {
		t.Fatalf("default scale program has %d nodes, want >= 100000", n)
	}
	if n := len(p.Procs); n < 100 {
		t.Fatalf("default scale program has %d procedures, want >= 100", n)
	}
	t.Logf("nodes=%d procs=%d", p.NumNodes(), len(p.Procs))
}

// TestScaleProbe is a tuning aid, not an assertion: -run ScaleProbe -v prints
// scratch vs incremental driver wall times on a reduced configuration.
func TestScaleProbe(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("probe only")
	}
	cfg := randprog.ScaleConfig{}
	src := randprog.Scale(1, cfg)
	p, err := ir.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := restructure.DriverOptions{
		Analysis: analysis.Options{Interprocedural: true, ModSummaries: true,
			MemoSummaries: true, TerminationLimit: 0},
		MaxDuplication: 0,
		Workers:        1,
	}
	run := func(label string, o restructure.DriverOptions) *restructure.DriverResult {
		start := time.Now()
		dr := restructure.Optimize(ir.Clone(p), o)
		t.Logf("%-12s %8v rounds=%d analyses=%d pairs=%d reused=%d invalidated=%d optimized=%d truncated=%v",
			label, time.Since(start).Round(time.Millisecond), dr.Stats.Rounds, dr.Stats.Analyses,
			dr.PairsTotal, dr.Stats.QueriesReused, dr.Stats.SubtreesInvalidated, dr.Optimized, dr.Truncated)
		return dr
	}
	so := opts
	so.Scratch = true
	run("scratch", so)
	incr := opts
	incr.Memo = analysis.NewSummaryMemo()
	dr := run("incremental", incr)
	memo := analysis.NewSummaryMemo()
	wo := opts
	wo.Memo = memo
	wr := restructure.Optimize(ir.Clone(p), wo)
	if wr.Optimized != dr.Optimized {
		t.Fatalf("warmup optimized %d != incremental %d", wr.Optimized, dr.Optimized)
	}
	// Re-analysis of the settled program: the memo is valid for exactly this
	// program, so the warm run is sound (and must match scratch bit for bit).
	final := wr.Program
	p = final
	rs := run("re-scratch", so)
	ri := run("re-warm", wo)
	if rs.Optimized != ri.Optimized || rs.PairsTotal != ri.PairsTotal {
		t.Fatalf("re-analysis diverged: scratch opt=%d pairs=%d, warm opt=%d pairs=%d",
			rs.Optimized, rs.PairsTotal, ri.Optimized, ri.PairsTotal)
	}
}
