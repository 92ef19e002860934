package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/restructure"
)

// stressRecord is one adversarial-scale measurement: a generated program
// driven through the optimizer with the incremental engine on and off. Two
// comparisons are reported. "Optimize" is the full cold optimization run,
// where the engine's wins are cross-round (replaying subtrees whose regions
// survived earlier rounds' restructurings). "Reanalyze" re-runs the driver
// over the settled output program with the warm memo — the regime the
// incremental engine exists for (repeat queries over unchanged procedures) —
// against a from-scratch re-analysis of the same program. Both comparisons
// assert the two modes produce byte-identical optimized programs and
// identical deterministic counters before any timing is reported.
type stressRecord struct {
	Name         string
	Nodes        int
	Procs        int
	Conditionals int

	OptimizeScratchMs     float64
	OptimizeIncrementalMs float64
	OptimizeSpeedup       float64
	QueriesReused         int
	PairsTotal            int
	ReuseRate             float64
	SubtreesInvalidated   int64

	ReanalyzeScratchMs     float64
	ReanalyzeIncrementalMs float64
	ReanalyzeSpeedup       float64
	ReanalyzeReuseRate     float64
}

// stressOptions is the driver configuration for the scale runs: serial (so
// the timings compare engines, not schedulers), unlimited work (the program
// is built so every conditional settles), no duplication cap.
func stressOptions() restructure.DriverOptions {
	return restructure.DriverOptions{
		Analysis: analysis.Options{
			Interprocedural: true,
			ModSummaries:    true,
			MemoSummaries:   true,
		},
		Workers: 1,
	}
}

// timedRun clones the program (so repeated runs see identical input),
// collects garbage (so one mode's allocation debt is not billed to the
// next), and times one full driver run.
func timedRun(p *ir.Program, o restructure.DriverOptions) (*restructure.DriverResult, time.Duration) {
	in := ir.Clone(p)
	runtime.GC()
	start := time.Now()
	dr := restructure.Optimize(in, o)
	return dr, time.Since(start)
}

// sameOutcome checks the scratch and incremental runs settled identically:
// same restructurings, same analysis cost, and a byte-identical optimized
// program. The stress numbers are only meaningful if the engine changed the
// cost and nothing else.
func sameOutcome(what string, a, b *restructure.DriverResult) error {
	if a.Optimized != b.Optimized || a.PairsTotal != b.PairsTotal ||
		a.Truncated != b.Truncated || a.Stats.Rounds != b.Stats.Rounds {
		return fmt.Errorf("stress: %s diverged: scratch opt=%d pairs=%d rounds=%d, incremental opt=%d pairs=%d rounds=%d",
			what, a.Optimized, a.PairsTotal, a.Stats.Rounds, b.Optimized, b.PairsTotal, b.Stats.Rounds)
	}
	if !bytes.Equal(ir.EncodeProgram(a.Program), ir.EncodeProgram(b.Program)) {
		return fmt.Errorf("stress: %s optimized programs differ between scratch and incremental modes", what)
	}
	return nil
}

// measureStress runs the incremental-vs-scratch comparison on src, a
// generated program recorded under name. label prefixes the run names in
// divergence errors, so a failure says which program diverged.
func measureStress(name, label, src string) (*stressRecord, error) {
	p, err := ir.Build(src)
	if err != nil {
		return nil, fmt.Errorf("stress: %s does not compile: %w", name, err)
	}
	rec := &stressRecord{
		Name:  name,
		Nodes: len(p.Nodes),
		Procs: len(p.Procs),
	}
	p.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && !n.Synthetic {
			rec.Conditionals++
		}
	})

	scratch := stressOptions()
	scratch.Scratch = true
	warm := stressOptions()
	warm.Memo = analysis.NewSummaryMemo()

	sres, st := timedRun(p, scratch)
	ires, it := timedRun(p, warm)
	if err := sameOutcome(label+"optimize", sres, ires); err != nil {
		return nil, err
	}
	rec.OptimizeScratchMs = ms(st)
	rec.OptimizeIncrementalMs = ms(it)
	rec.OptimizeSpeedup = ratio(st, it)
	rec.QueriesReused = ires.Stats.QueriesReused
	rec.PairsTotal = ires.PairsTotal
	rec.ReuseRate = ires.Stats.ReuseRate
	rec.SubtreesInvalidated = ires.Stats.SubtreesInvalidated

	// Re-analysis over the settled program. The warm memo's surviving
	// records were committed against regions never dirtied after recording,
	// so they are valid for exactly this program — replaying them against
	// the pre-optimization input would not be sound.
	final := ires.Program
	rsres, rst := timedRun(final, scratch)
	rires, rit := timedRun(final, warm)
	if err := sameOutcome(label+"reanalyze", rsres, rires); err != nil {
		return nil, err
	}
	rec.ReanalyzeScratchMs = ms(rst)
	rec.ReanalyzeIncrementalMs = ms(rit)
	rec.ReanalyzeSpeedup = ratio(rst, rit)
	rec.ReanalyzeReuseRate = rires.Stats.ReuseRate
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func formatStress(r *stressRecord) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "stress: %s — %d nodes, %d procedures, %d conditionals\n",
		r.Name, r.Nodes, r.Procs, r.Conditionals)
	fmt.Fprintf(&b, "  optimize:  scratch %.0f ms, incremental %.0f ms (%.1fx), %d/%d pairs reused (%.0f%%), %d subtrees invalidated\n",
		r.OptimizeScratchMs, r.OptimizeIncrementalMs, r.OptimizeSpeedup,
		r.QueriesReused, r.PairsTotal, r.ReuseRate*100, r.SubtreesInvalidated)
	fmt.Fprintf(&b, "  reanalyze: scratch %.0f ms, incremental %.0f ms (%.1fx), %.0f%% pairs reused",
		r.ReanalyzeScratchMs, r.ReanalyzeIncrementalMs, r.ReanalyzeSpeedup, r.ReanalyzeReuseRate*100)
	return b.String()
}
