package icbe

import (
	"math"
	"runtime"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// TestColdOptimizeKeepsNoMemo pins the cold path: an Optimize given no
// summary memo and no seeds keeps no memo, so it records no summary and
// replays none, and one Compile + Optimize of a `recursion`-shape program
// allocates at most maxBytesPerOp. With a private memo the same programs
// cost about 1.12 MB each, a fifth of it the recorded summaries, of which
// this shape replays none. The bound sits about 15% above the 654 KB
// measured once the node kinds shared one payload block; at 232 bytes a
// node, the same op cost 761 KB.
func TestColdOptimizeKeepsNoMemo(t *testing.T) {
	const maxBytesPerOp = 750_000
	opts := DefaultOptions()
	opts.Workers = 1
	srcs := coldSources(coldShapes[0].gen)
	// The least of a few passes: anything else the process allocates
	// meanwhile only adds, and the first pass also fills the pools.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, src := range srcs {
			p, err := Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := p.Optimize(opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := rep.Stats; st.SNEMemoEntries != 0 || st.SNEMemoHits != 0 || st.QueriesReused != 0 {
				t.Fatalf("cold optimize kept a summary memo: %d entries, %d hits, %d pairs reused",
					st.SNEMemoEntries, st.SNEMemoHits, st.QueriesReused)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(len(srcs)))
	}
	if raceEnabled {
		t.Logf("%d bytes per program; the bound is not checked under -race", least)
		return
	}
	if least > maxBytesPerOp {
		t.Errorf("cold Compile + Optimize allocated %d bytes per program, want at most %d", least, maxBytesPerOp)
	}
	t.Logf("%d bytes per program", least)
}

// TestFullTierAllocBound bounds what one Compile + Optimize of a paper
// program allocates at the full tier (Check, Verify and Fold, verified on
// the Train input), as the benchmark's paper-suite workload runs it. The
// check gate's SCCP runs carve their states from one workspace per
// Optimize; when each run allocated its own, a program cost about 3.6 MB.
// The bound sits about 15% above the 1.26 MB measured with 152-byte nodes,
// 24-byte state cells and fold's edge facts carved from one block (1.61 MB
// before).
func TestFullTierAllocBound(t *testing.T) {
	const maxBytesPerOp = 1_450_000
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Check, opts.Verify, opts.Fold = true, true, true
	ws := progs.All()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, w := range ws {
			p, err := Compile(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			opts.VerifyInputs = [][]int64{w.Train}
			if _, _, err := p.Optimize(opts); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(len(ws)))
	}
	if raceEnabled {
		t.Logf("%d bytes per program; the bound is not checked under -race", least)
		return
	}
	if least > maxBytesPerOp {
		t.Errorf("full-tier Compile + Optimize allocated %d bytes per program, want at most %d", least, maxBytesPerOp)
	}
	t.Logf("%d bytes per program", least)
}

// TestAnalyzerNewAllocatesLittle bounds what analysis.New allocates on a
// 34k-node Scale program: the MOD sets and the analyzer, nothing sized by
// the node count. The analysis reads call-site links from the nodes' own
// edges; three node-sized link tables alone would cost about 410 KB here.
func TestAnalyzerNewAllocatesLittle(t *testing.T) {
	const maxBytes = 64 << 10
	const runs = 10
	p, err := ir.Build(randprog.Scale(3, randprog.ScaleConfig{Leaves: 80, LeafStmts: 400, Hubs: 24}))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions().analysisOpts()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		analysis.New(p, opts)
	}
	runtime.ReadMemStats(&after)
	mean := (after.TotalAlloc - before.TotalAlloc) / runs
	if mean >= maxBytes {
		t.Errorf("analysis.New allocated %d bytes on %d nodes, want under %d", mean, p.NumNodes(), maxBytes)
	}
	t.Logf("analysis.New: %d bytes on %d nodes", mean, p.NumNodes())
}
