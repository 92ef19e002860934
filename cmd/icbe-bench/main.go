// Command icbe-bench regenerates the paper's evaluation tables and figures
// on the reproduction's workloads.
//
// Usage:
//
//	icbe-bench -all
//	icbe-bench -table1 -table2
//	icbe-bench -fig11 -workload stdio
//	icbe-bench -stress -require-incremental-speedup 5
//
// Timings of the optimizer and the service come from the benchmark/
// harness; see benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"icbe/internal/experiments"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

func main() {
	var (
		all       = flag.Bool("all", false, "run every experiment")
		table1    = flag.Bool("table1", false, "Table 1: benchmark characteristics")
		table2    = flag.Bool("table2", false, "Table 2: analysis cost")
		fig9      = flag.Bool("fig9", false, "Figure 9: statically detectable correlation")
		fig10     = flag.Bool("fig10", false, "Figure 10: cost/benefit scatter")
		fig11     = flag.Bool("fig11", false, "Figure 11: reduction vs code growth")
		headline  = flag.Bool("headline", false, "headline claims (3-18% eliminated, ~2.5x vs intra)")
		inlining  = flag.Bool("inlining", false, "inlining vs ICBE comparison (paper §5)")
		heuristic = flag.Bool("heuristic", false, "growth-limit vs profile-guided benefit heuristic")
		checkRep  = flag.Bool("check", false, "static verification: SCCP cross-check agreement and recall per workload")
		workload  = flag.String("workload", "", "restrict to one workload by name")
		termLim   = flag.Int("term", experiments.PaperTerminationLimit, "analysis termination limit")
		workers   = flag.Int("workers", runtime.NumCPU(), "analysis worker goroutines per driver run (1 = serial)")
		verify    = flag.Bool("verify", false, "shadow-execute every applied restructuring differentially; violations roll back")
		timeout   = flag.Duration("timeout", 0, "per-driver-run deadline, e.g. 30s (0 = none)")
		stress    = flag.Bool("stress", false, "adversarial scale: optimize and re-analyze a ~100k-node generated program (plus a deep-recursion program) with the incremental engine on and off")
		minSpeed  = flag.Float64("require-incremental-speedup", 0, "with -stress: exit nonzero if incremental re-analysis of the 100k-node stress program is not this many times faster than from-scratch (0 = no gate)")
	)
	flag.Parse()
	experiments.Workers = *workers
	experiments.Verify = *verify
	experiments.Timeout = *timeout
	if !*all && !*table1 && !*table2 && !*fig9 && !*fig10 && !*fig11 && !*headline && !*inlining && !*heuristic && !*checkRep && !*stress {
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *minSpeed > 0 && !*stress {
		fmt.Fprintln(os.Stderr, "icbe-bench: -require-incremental-speedup needs -stress")
		os.Exit(2)
	}

	ws := progs.All()
	if *workload != "" {
		w := progs.ByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "icbe-bench: unknown workload %q\n", *workload)
			os.Exit(1)
		}
		ws = []*progs.Workload{w}
	}

	if *stress {
		// The hub-and-leaf scale program: ~100k nodes, 190 procedures.
		rec, err := measureStress("randprog.Scale(seed=1)", "", randprog.Scale(1, randprog.ScaleConfig{}))
		check(err)
		fmt.Println(formatStress(rec))
		if *minSpeed > 0 && rec.ReanalyzeSpeedup < *minSpeed {
			fmt.Fprintf(os.Stderr, "icbe-bench: incremental re-analysis speedup %.2fx is below the required %.1fx\n",
				rec.ReanalyzeSpeedup, *minSpeed)
			os.Exit(1)
		}
		// A cyclic call graph (self-recursive chains and mutual-recursion
		// rings) whose summaries settle by fixed point through the cycle:
		// the entry/exit-splitting stress the scale shape cannot produce.
		recRec, err := measureStress("randprog.Recursion(seed=1)", "recursion ", randprog.Recursion(1, randprog.RecConfig{
			Chains: 8, ChainLen: 5, Depth: 40, BodyStmts: 120, Globals: 3,
		}))
		check(err)
		fmt.Println(formatStress(recRec))
	}

	if *all || *table1 {
		rows, err := experiments.Table1(ws)
		check(err)
		fmt.Println(experiments.FormatTable1(rows))
	}
	if *all || *table2 {
		rows, err := experiments.Table2(ws, *termLim)
		check(err)
		fmt.Println(experiments.FormatTable2(rows))
	}
	if *all || *fig9 {
		rows, err := experiments.Figure9(ws)
		check(err)
		fmt.Println(experiments.FormatFigure9(rows))
	}
	if *all || *fig10 {
		intra, inter, err := experiments.Figure10(ws)
		check(err)
		fmt.Println(experiments.FormatFigure10(intra, inter))
	}
	if *all || *fig11 {
		rows, err := experiments.Figure11(ws, *termLim, experiments.PaperDupLimits)
		check(err)
		fmt.Println(experiments.FormatFigure11(rows))
	}
	if *all || *headline {
		h, err := experiments.ComputeHeadline(ws, *termLim, experiments.PaperDupLimits)
		check(err)
		fmt.Println(experiments.FormatHeadline(h))
	}
	if *all || *inlining {
		rows, err := experiments.InliningComparison(ws, *termLim, 200)
		check(err)
		fmt.Println(experiments.FormatInlining(rows))
	}
	if *all || *heuristic {
		rows, err := experiments.HeuristicComparison(ws, *termLim)
		check(err)
		fmt.Println(experiments.FormatHeuristic(rows))
	}
	if *all || *checkRep {
		rows, err := experiments.CheckReport(ws, *termLim)
		check(err)
		fmt.Println(experiments.FormatCheckReport(rows))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "icbe-bench:", err)
		os.Exit(1)
	}
}
