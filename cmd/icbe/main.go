// Command icbe compiles a MiniC program, optionally applies interprocedural
// conditional branch elimination, and runs or inspects the result.
//
// Usage:
//
//	icbe [flags] program.mc
//
// Examples:
//
//	icbe -stats program.mc                 # size statistics
//	icbe -run -input 1,2,3 program.mc      # execute
//	icbe -optimize -run -input 1 program.mc
//	icbe -optimize -report program.mc      # per-conditional analysis report
//	icbe -optimize -intra program.mc       # intraprocedural baseline
//	icbe -dump program.mc                  # ICFG listing
//	icbe -dot program.mc | dot -Tsvg       # ICFG drawing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"icbe"
	"icbe/internal/reportjson"
)

func main() {
	var (
		doDump   = flag.Bool("dump", false, "print the ICFG as text")
		doDot    = flag.Bool("dot", false, "print the ICFG in Graphviz dot format")
		doStats  = flag.Bool("stats", false, "print program size statistics")
		doRun    = flag.Bool("run", false, "execute the program")
		doOpt    = flag.Bool("optimize", false, "apply conditional branch elimination first")
		doReport = flag.Bool("report", false, "print the per-conditional optimization report")
		intra    = flag.Bool("intra", false, "use the intraprocedural baseline instead of ICBE")
		dupLimit = flag.Int("limit", 0, "per-conditional duplication limit N (0 = unlimited)")
		termLim  = flag.Int("term", 1000, "analysis termination limit in node-query pairs (0 = unlimited)")
		inputStr = flag.String("input", "", "comma-separated int64 input stream for -run")
		hints    = flag.Int("hints", 0, "print branch-prediction hints for the conditional on this line")
		inliner  = flag.Bool("inline-priorities", false, "rank procedures for correlation-directed inlining")
		compact  = flag.Bool("compact", false, "contract synthetic no-op nodes after optimization")
		workers  = flag.Int("workers", runtime.NumCPU(), "analysis worker goroutines for -optimize (1 = serial)")
		verify   = flag.Bool("verify", false, "differentially shadow-execute after each applied restructuring; violations roll back")
		chk      = flag.Bool("check", false, "cross-check answers against a forward SCCP oracle and lint each applied restructuring; violations roll back")
		chkFatal = flag.Bool("check-fatal", false, "like -check, but exit nonzero when the check layer refused any conditional")
		doFold   = flag.Bool("fold", false, "after the correlation rounds, fold residual branches the SCCP oracle proves constant; every fold is gated and vetoes roll back")
		timeout  = flag.Duration("timeout", 0, "overall -optimize deadline, e.g. 500ms (0 = none)")
		branchTO = flag.Duration("branch-timeout", 0, "per-conditional analysis deadline (0 = none)")
		jsonOut  = flag.Bool("json", false, "emit the optimization report as JSON on stdout (with -optimize; replaces the text report)")
		strict   = flag.Bool("strict", false, "exit 3 when any conditional failed a gate or work was truncated")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: icbe [flags] program.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := icbe.Compile(string(src))
	if err != nil {
		fatal(err)
	}

	// One options value shared by every mode, so -intra/-term/-limit apply
	// to -hints and -inline-priorities too, not just -optimize.
	opts := icbe.DefaultOptions()
	if *intra {
		opts = icbe.IntraOptions()
	}
	opts.MaxDuplication = *dupLimit
	opts.TerminationLimit = *termLim
	opts.Compact = *compact
	opts.Workers = *workers
	opts.Verify = *verify
	opts.Check = *chk
	opts.CheckFatal = *chkFatal
	opts.Fold = *doFold
	opts.Timeout = *timeout
	opts.BranchTimeout = *branchTO

	input, err := parseInput(*inputStr)
	if err != nil {
		fatal(err)
	}
	if (*verify || *doFold) && len(input) > 0 {
		// The -input stream doubles as a workload vector for the shadow
		// oracle (which also gates every fold), alongside the built-in ones.
		opts.VerifyInputs = [][]int64{input}
	}

	if *doStats {
		st := prog.Stats()
		fmt.Printf("lines        %d\nprocedures   %d\nnodes        %d\noperations   %d\nconditionals %d (analyzable %d)\n",
			st.SourceLines, st.Procedures, st.Nodes, st.Operations, st.Conditionals, st.AnalyzableConds)
	}

	if *hints > 0 {
		hs := prog.PredictionHints(*hints, opts)
		if len(hs) == 0 {
			fmt.Printf("no correlation sources for a conditional on line %d\n", *hints)
		}
		for _, h := range hs {
			where := "intraprocedural"
			if h.Interprocedural {
				where = "interprocedural"
			}
			extra := ""
			if h.BranchLine > 0 {
				extra = fmt.Sprintf(" (predict from the branch on line %d)", h.BranchLine)
			}
			fmt.Printf("line %d: outcome %s decided by %s source at line %d, %s%s\n",
				*hints, h.Outcome, h.SourceKind, h.SourceLine, where, extra)
		}
	}
	if *inliner {
		fmt.Printf("%-16s %14s %8s\n", "procedure", "cross-boundary", "weight")
		for _, pr := range prog.InliningPriorities(opts, nil) {
			fmt.Printf("%-16s %14d %8d\n", pr.Procedure, pr.Conditionals, pr.Weight)
		}
	}

	if *jsonOut && !*doOpt {
		fatal(fmt.Errorf("-json requires -optimize"))
	}

	strictViolated := false
	work := prog
	if *doOpt {
		var rep *icbe.Report
		var optErr error
		work, rep, optErr = prog.Optimize(opts)
		if optErr != nil && rep == nil {
			fatal(optErr)
		}
		if *strict && (rep.Truncated || len(rep.Stats.Failures) > 0) {
			strictViolated = true
		}
		if *jsonOut {
			// The same encoder the service uses for /optimize and /stats,
			// so CLI and server reports cannot drift.
			if err := reportjson.Encode(os.Stdout, reportjson.FromReport(rep)); err != nil {
				fatal(err)
			}
		} else {
			fmt.Printf("optimized %d conditionals (%d node-query pairs, operations %d -> %d)\n",
				rep.Optimized, rep.PairsTotal, rep.OperationsBefore, rep.OperationsAfter)
		}
		if rep.Truncated {
			fmt.Fprintf(os.Stderr, "icbe: warning: work budget or deadline exhausted; some conditionals were not analyzed (see report)\n")
		}
		if fs := rep.FailureSummary(); fs != "" {
			fmt.Fprintf(os.Stderr, "icbe: warning: contained failures rolled back: %s\n", fs)
		}
		if *doReport && !*jsonOut {
			fmt.Printf("%6s %10s %8s %6s %8s %8s %13s\n",
				"line", "analyzable", "answers", "full", "dup est", "pairs", "applied")
			for _, c := range rep.Conditionals {
				status := fmt.Sprintf("%v", c.Applied)
				if c.Err != nil {
					status = "error"
				}
				if c.FailureKind != "" {
					status = c.FailureKind
				}
				if c.Skipped {
					status = "skipped"
					if c.FailureKind == "timeout" {
						status = "timeout"
					}
				}
				fmt.Printf("%6d %10v %8s %6v %8d %8d %13s\n",
					c.Line, c.Analyzable, c.Answers, c.Full, c.DupEstimate, c.PairsProcessed, status)
			}
			s := rep.Stats
			fmt.Printf("driver: %d workers, %d rounds, %d analyses (%d re-analyses), %d clones (%d avoided), analysis %v, apply %v\n",
				s.Workers, s.Rounds, s.Analyses, s.Reanalyses, s.Clones, s.ClonesAvoided, s.AnalysisWall, s.ApplyWall)
			if s.VerifyRuns > 0 {
				fmt.Printf("verify: %d shadow comparisons, %v interpreting\n", s.VerifyRuns, s.VerifyWall)
			}
			if s.CheckRuns > 0 {
				fmt.Printf("check: %d oracle runs, %d/%d claims graded (recall %.2f), %d disagreements, %d vacuous, %d residual, findings %d -> %d, %v\n",
					s.CheckRuns, s.SCCPAgreements+s.SCCPDisagreements, s.SCCPDecided, s.SCCPRecall,
					s.SCCPDisagreements, s.SCCPVacuous, s.SCCPResidual,
					s.CheckFindingsPre, s.CheckFindingsPost, s.CheckWall)
			}
			if *doFold {
				fmt.Printf("fold: %d/%d folds adopted (%d edges redirected), residual %d -> %d (reduction %.2f), %v\n",
					s.FoldApplied, s.FoldAttempted, s.FoldDuplicated,
					s.SCCPResidualBefore, s.SCCPResidualAfter, s.FoldReduction, s.FoldWall)
			}
		}
		if optErr != nil {
			// -check-fatal: the refusals were printed above; exit nonzero.
			fatal(optErr)
		}
	}

	if *doDump {
		fmt.Print(work.Dump())
	}
	if *doDot {
		fmt.Print(work.Dot())
	}
	if *doRun {
		res, err := work.Run(input)
		if err != nil {
			fatal(err)
		}
		for _, v := range res.Output {
			fmt.Println(v)
		}
		fmt.Fprintf(os.Stderr, "executed %d operations, %d conditionals\n", res.Operations, res.Conditionals)
	}
	if strictViolated {
		// -strict: contained failures and truncation are warnings by
		// default (the emitted program is still correct); strict callers
		// get a distinct exit code, separate from hard errors (1).
		fmt.Fprintln(os.Stderr, "icbe: strict: conditionals failed a gate or work was truncated")
		os.Exit(3)
	}
}

func parseInput(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input element %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icbe:", err)
	os.Exit(1)
}
