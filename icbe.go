// Package icbe is a reproduction of "Interprocedural Conditional Branch
// Elimination" (Bodík, Gupta, Soffa — PLDI 1997). It provides:
//
//   - a compiler front end for MiniC, a small C-like language, lowering to
//     an interprocedural control flow graph (ICFG) in call-site normal form;
//   - the paper's demand-driven interprocedural static correlation analysis
//     (queries of the form `var relop const` propagated backwards with
//     summary node entries at procedure exits);
//   - the ICBE restructuring transformation: path duplication with
//     procedure entry splitting and exit splitting, eliminating conditional
//     branches whose outcome is statically known along correlated paths;
//   - an intraprocedural baseline (Mueller/Whalley-style, with MOD summary
//     information at call sites);
//   - an ICFG interpreter/profiler used both to collect dynamic profiles
//     and to verify that optimized programs behave identically while never
//     executing more operations.
//
// Quick start:
//
//	prog, err := icbe.Compile(src)
//	before, _ := prog.Run(input)
//	opt, report, err := prog.Optimize(icbe.DefaultOptions())
//	after, _ := opt.Run(input)
//	// identical output, fewer executed conditional branches
package icbe

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/restructure"
)

// Program is a compiled MiniC program in ICFG form.
type Program struct {
	g *ir.Program
}

// Compile parses, checks, and lowers MiniC source text. Library callers
// always get an error for bad input, never a crash: an internal panic in
// the front end is recovered at this boundary.
func Compile(src string) (p *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("icbe: internal error compiling program: %v\n%s", r, debug.Stack())
		}
	}()
	g, err := ir.Build(src)
	if err != nil {
		return nil, err
	}
	if err := ir.Validate(g); err != nil {
		return nil, fmt.Errorf("icbe: internal: built graph invalid: %w", err)
	}
	// Optimize forks the graph instead of copying it. A shared graph owns
	// nothing, so forking it writes nothing and concurrent Optimize calls
	// on one Program do not race.
	g.Share()
	return &Program{g: g}, nil
}

// Graph exposes the underlying ICFG (read-mostly; mutate via Optimize).
// The graph is shared (ir.Program.Share) with every program Optimize
// returns from it, so a caller that writes it must go through the ir
// mutators, Mut and MutProc, which copy before writing.
func (p *Program) Graph() *ir.Program { return p.g }

// Dump renders the ICFG as text.
func (p *Program) Dump() string { return p.g.Dump() }

// Dot renders the ICFG in Graphviz format.
func (p *Program) Dot() string { return p.g.Dot() }

// Stats summarizes program size.
type Stats struct {
	SourceLines     int
	Procedures      int
	Nodes           int // all ICFG nodes, including synthetic ones
	Operations      int // operation nodes (assign/branch/store/print/call)
	Conditionals    int // branch nodes
	AnalyzableConds int // branches of the (var relop const) form
}

// Stats returns the program's size statistics.
func (p *Program) Stats() Stats {
	st := ir.Collect(p.g)
	return Stats{
		SourceLines:     p.g.SourceLines,
		Procedures:      st.Procs,
		Nodes:           st.AllNodes,
		Operations:      st.Operations,
		Conditionals:    st.Conditionals,
		AnalyzableConds: st.AnalyzableConds,
	}
}

// RunResult reports one execution of a program.
type RunResult struct {
	// Output is the sequence of printed values.
	Output []int64
	// Operations counts executed operation nodes; Conditionals counts
	// executed branch nodes.
	Operations   int64
	Conditionals int64
	// NodeCounts holds per-node execution counts when profiling was on.
	NodeCounts map[int]int64
}

// Run executes the program on the given input stream.
func (p *Program) Run(input []int64) (*RunResult, error) {
	return p.run(input, false)
}

// RunProfiled executes the program and records per-node execution counts.
func (p *Program) RunProfiled(input []int64) (*RunResult, error) {
	return p.run(input, true)
}

func (p *Program) run(input []int64, prof bool) (*RunResult, error) {
	res, err := interp.Run(p.g, interp.Options{Input: input, Profile: prof})
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Output:       res.Output,
		Operations:   res.Operations,
		Conditionals: res.CondExecs,
	}
	if prof {
		out.NodeCounts = make(map[int]int64, len(res.ExecCount))
		for id, c := range res.ExecCount {
			out.NodeCounts[int(id)] = c
		}
	}
	return out, nil
}

// Options configures analysis and optimization.
type Options struct {
	// Interprocedural selects the ICBE analysis; false selects the
	// intraprocedural baseline.
	Interprocedural bool
	// TerminationLimit bounds analysis work per conditional in node-query
	// pairs (0 = unlimited; the paper uses 1000).
	TerminationLimit int
	// ArithSubst enables back-substitution through v := w ± k and v := -w.
	ArithSubst bool
	// ModSummaries consults MOD summary information at call sites.
	ModSummaries bool
	// MaxDuplication is the per-conditional code-growth limit N (0 =
	// unlimited; the paper sweeps 5..200).
	MaxDuplication int
	// FullOnly optimizes only fully correlated conditionals.
	FullOnly bool
	// Compact contracts synthetic no-op nodes after optimization; it never
	// changes program output or operation counts.
	Compact bool
	// Workers bounds the concurrent analysis goroutines of Optimize's
	// analysis phase. 0 and 1 analyze serially; negative values use all
	// CPUs. The optimized program and the report are identical for every
	// worker count (the wall-clock fields of Report.Stats aside).
	Workers int
	// Verify enables differential shadow execution after every applied
	// restructuring: the restructured program is run over VerifyInputs
	// plus built-in input vectors and compared with the program before it,
	// and any output difference or growth in executed operations rolls
	// that restructuring back with a typed failure on its CondReport.
	// Costs one comparison per input per applied conditional (see
	// Report.Stats.VerifyRuns).
	Verify bool
	// VerifyInputs supplies workload input streams for Verify.
	VerifyInputs [][]int64
	// Check enables the static verification layer: a forward SCCP oracle
	// cross-checks every demand-driven answer before its restructuring is
	// attempted, and invariant lint passes (unreachable node,
	// use-before-def, must-fail assertion, structural linkage) re-run on
	// every applied restructuring, rolling back any apply that regresses.
	// Unlike Verify no inputs are run, so the static layer covers all paths;
	// the two oracles compose. See Report.Stats' check counters.
	Check bool
	// CheckFatal additionally turns any cross-check disagreement or check
	// veto into an Optimize error after the (fully rolled-back) run
	// completes. It implies Check.
	CheckFatal bool
	// Fold enables the residual constant-branch fold pass: after the
	// correlation rounds settle, the forward CCP oracle classifies every
	// remaining conditional and branches it proves constant — on all
	// executable in-edges, or per-edge for edge-split residuals — are
	// folded inside the same transactional harness, each attempt gated by
	// validation, the invariant passes, shadow execution, and a post-fold
	// oracle re-check. Vetoes roll back with a "fold" failure. See
	// Report.Stats' fold counters.
	Fold bool
	// Timeout bounds the whole optimization run (0 = none). On expiry the
	// program optimized so far is returned and still-queued conditionals
	// are reported Skipped with a "timeout" failure.
	Timeout time.Duration
	// BranchTimeout bounds each conditional's analysis (0 = none).
	BranchTimeout time.Duration
	// Ctx cancels the optimization run early (nil = context.Background()).
	Ctx context.Context
	// SummaryMemo, when non-nil, is the run's summary memo: keep it warm
	// across runs, seed it with analysis.SummaryMemo.Inject to replay
	// another run's procedure summaries, and harvest it with ExportPristine
	// afterwards. A summary memo is used only with a supplied memo or seeds
	// (SeedRecords): a cold run replays too little to pay for recording, so
	// without them every conditional is propagated fresh. A replayed summary
	// is pair-for-pair identical to a fresh propagation, so the optimized
	// program and report are unchanged (the memo hit counters aside). Only
	// the interprocedural analysis has summaries. The memo must not be
	// shared between concurrent runs.
	SummaryMemo *analysis.SummaryMemo
	// SeedRecords are portable summary records (for example a prior run's
	// ExportPristine) injected into the run's summary memo (SummaryMemo, or
	// a fresh one when it is nil) before the first round, equivalent to
	// seeding SummaryMemo through analysis.SummaryMemo.Inject. Injection is
	// strict verify-on-read and replay is exact, so seeds accelerate the run
	// without changing the optimized program or the report
	// (Report.Stats.SeedsInjected aside). Ignored for intraprocedural and
	// Scratch runs.
	SeedRecords []analysis.PortableRecord
	// Scratch disables the cross-round incremental engine (the summary
	// memo), so a supplied SummaryMemo or SeedRecords is ignored and every
	// requeued conditional re-analyzes from scratch. Used only with a
	// supplied memo or seeds; a run without them keeps no memo anyway. The
	// optimized program and report are identical either way; Scratch is the
	// baseline for measuring the incremental speedup.
	Scratch bool
}

// DefaultOptions returns the paper's main configuration: interprocedural
// analysis with MOD summaries, termination limit 1000, no duplication
// limit.
func DefaultOptions() Options {
	return Options{Interprocedural: true, ModSummaries: true, TerminationLimit: 1000}
}

// IntraOptions returns the paper's intraprocedural baseline configuration.
func IntraOptions() Options {
	return Options{Interprocedural: false, ModSummaries: true, TerminationLimit: 1000}
}

func (o Options) analysisOpts() analysis.Options {
	return analysis.Options{
		Interprocedural:  o.Interprocedural,
		TerminationLimit: o.TerminationLimit,
		ArithSubst:       o.ArithSubst,
		ModSummaries:     o.ModSummaries,
		// A caller-supplied summary memo (SummaryMemo or SeedRecords)
		// replays identical closures instead of re-propagating them; results
		// are exact, so there is nothing to configure (only the
		// interprocedural analysis has summaries).
		MemoSummaries: o.Interprocedural,
	}
}

// CondReport describes the optimization outcome for one conditional.
type CondReport struct {
	// Line is the source line of the conditional.
	Line int
	// Analyzable reports the (var relop const) form.
	Analyzable bool
	// Correlated reports that some incoming path determines the outcome;
	// Full reports that every incoming path does.
	Correlated bool
	Full       bool
	// Answers renders the root answer set (e.g. "{T,U}").
	Answers string
	// DupEstimate is the analysis' upper bound on new operation nodes.
	DupEstimate int
	// PairsProcessed is the analysis cost in node-query pairs.
	PairsProcessed int
	// Applied reports that the branch was eliminated along its correlated
	// paths.
	Applied bool
	// Skipped reports that the branch was still queued when the driver's
	// work cap was reached or its deadline expired and was never analyzed
	// (see Report.Truncated).
	Skipped bool
	// FailureKind categorizes a contained failure that rolled this
	// branch's optimization back: "panic", "validate", "diff-mismatch",
	// "op-growth", "timeout", "check" or "fold"; empty when none. The program
	// returned by Optimize never includes a restructuring that failed a gate.
	FailureKind string
	// Err holds the restructuring failure, if any (the detailed
	// BranchFailure when FailureKind is set).
	Err error
}

// DriverStats exposes the optimization driver's cost counters. It is
// restructure.DriverStats, declared once with its JSON names and a stat
// class per field: "result" fields are deterministic and identical for
// every worker count, "telemetry" fields (wall clocks, Workers, memo
// warmth) vary from run to run.
type DriverStats = restructure.DriverStats

// Report summarizes one Optimize run.
type Report struct {
	Conditionals []CondReport
	// Optimized counts restructured conditionals.
	Optimized int
	// PairsTotal is the total analysis cost.
	PairsTotal int
	// OperationsBefore/After measure static code growth.
	OperationsBefore, OperationsAfter int
	// Truncated reports that the driver's work cap was reached; the
	// skipped conditionals carry Skipped report entries.
	Truncated bool
	// Stats holds the driver's cost counters.
	Stats DriverStats
}

// Optimize applies ICBE (or the intraprocedural baseline) to every
// analyzable conditional with the two-phase driver: conditionals are
// analyzed concurrently against program snapshots (Options.Workers) and the
// accepted restructurings applied serially. The receiver is unmodified; the
// optimized program is returned and is identical for every worker count.
// The result shares its unchanged nodes with the receiver and, like a
// compiled Program, may be optimized by several goroutines at once.
//
// The driver is transactional: a conditional whose restructuring panics,
// fails validation, or (with Options.Verify) diverges under shadow
// execution is rolled back and reported with a FailureKind while the other
// conditionals still optimize. A panic escaping the driver itself is
// recovered here and returned as an error — library callers never crash.
func (p *Program) Optimize(opts Options) (op *Program, rep *Report, err error) {
	return p.OptimizeContext(opts.Ctx, opts)
}

// OptimizeContext is Optimize bound to a context: the context's deadline and
// cancellation propagate into the driver cooperatively (the analysis resolves
// pending queries UNDEF and still-queued conditionals are reported Skipped
// with a timeout failure), so a caller serving requests can cancel a run
// without losing the work already applied. It overrides Options.Ctx.
func (p *Program) OptimizeContext(ctx context.Context, opts Options) (op *Program, rep *Report, err error) {
	opts.Ctx = ctx
	defer func() {
		if r := recover(); r != nil {
			op, rep = nil, nil
			err = fmt.Errorf("icbe: internal error optimizing program: %v\n%s", r, debug.Stack())
		}
	}()
	dr := restructure.Optimize(p.g, restructure.DriverOptions{
		Analysis:       opts.analysisOpts(),
		MaxDuplication: opts.MaxDuplication,
		FullOnly:       opts.FullOnly,
		Workers:        opts.Workers,
		Verify:         opts.Verify,
		VerifyInputs:   opts.VerifyInputs,
		Check:          opts.Check || opts.CheckFatal,
		Fold:           opts.Fold,
		Timeout:        opts.Timeout,
		BranchTimeout:  opts.BranchTimeout,
		Ctx:            opts.Ctx,
		Memo:           opts.SummaryMemo,
		SeedRecords:    opts.SeedRecords,
		Scratch:        opts.Scratch,
	})
	if opts.Compact {
		ir.Simplify(dr.Program)
	}
	// The result is copy-on-write over p's graph. Sharing it makes it own
	// nothing, as Compile's graphs do, so it too may be optimized by
	// several goroutines at once.
	dr.Program.Share()
	rep = &Report{
		Optimized:        dr.Optimized,
		PairsTotal:       dr.PairsTotal,
		OperationsBefore: ir.Collect(p.g).Operations,
		OperationsAfter:  ir.Collect(dr.Program).Operations,
		Truncated:        dr.Truncated,
		Stats:            dr.Stats,
	}
	for _, r := range dr.Reports {
		c := CondReport{
			Line:           r.Line,
			Analyzable:     r.Analyzable,
			Correlated:     r.Answers&(analysis.AnsTrue|analysis.AnsFalse) != 0,
			Full:           r.Full,
			Answers:        r.Answers.String(),
			DupEstimate:    r.DupEstimate,
			PairsProcessed: r.PairsProcessed,
			Applied:        r.Applied,
			Skipped:        r.Skipped,
			Err:            r.Err,
		}
		if r.Failure != nil {
			c.FailureKind = r.Failure.Kind.String()
		}
		rep.Conditionals = append(rep.Conditionals, c)
	}
	if opts.CheckFatal && rep.Stats.Failures["check"] > 0 {
		// The refusals were contained and rolled back; the caller asked for
		// them to be fatal. The program and report are still returned for
		// inspection.
		return &Program{g: dr.Program}, rep,
			fmt.Errorf("icbe: static check layer refused %d conditional(s) (%d oracle disagreements); see CondReport entries with FailureKind %q",
				rep.Stats.Failures["check"], rep.Stats.SCCPDisagreements, "check")
	}
	return &Program{g: dr.Program}, rep, nil
}

// FailureSummary renders the report's contained-failure counts as a stable
// one-line string ("2 validate, 1 timeout"), or "" when the run had none.
func (r *Report) FailureSummary() string {
	if len(r.Stats.Failures) == 0 {
		return ""
	}
	kinds := make([]string, 0, len(r.Stats.Failures))
	for k := range r.Stats.Failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := ""
	for i, k := range kinds {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d %s", r.Stats.Failures[k], k)
	}
	return s
}

// PredictionHint tells a branch predictor which earlier program point
// decides a conditional's outcome (paper §5, "Assisting hardware branch
// prediction").
type PredictionHint struct {
	// SourceLine is the line of the deciding statement; SourceKind names
	// the correlation source ("branch", "constant", "byte-conversion",
	// "dereference", "allocation").
	SourceLine int
	SourceKind string
	// BranchLine, for branch sources, is the earlier conditional whose
	// outcome predicts this one.
	BranchLine int
	// Outcome is the decided outcome ("true" or "false").
	Outcome string
	// Interprocedural reports that the source lies in another procedure.
	Interprocedural bool
}

// branchOnLine returns the first analyzable conditional on the given source
// line (lowest node ID), or nil when the line has none.
func (p *Program) branchOnLine(line int) *ir.Node {
	var target *ir.Node
	p.g.LiveNodes(func(n *ir.Node) {
		if n.Kind == ir.NBranch && n.Analyzable() && int(n.Line) == line {
			if target == nil || n.ID < target.ID {
				target = n
			}
		}
	})
	return target
}

// PredictionHints analyzes the first analyzable conditional on the given
// source line and returns its statically detected correlation sources as
// predictor directives.
func (p *Program) PredictionHints(line int, opts Options) []PredictionHint {
	target := p.branchOnLine(line)
	if target == nil {
		return nil
	}
	res := analysis.New(p.g, opts.analysisOpts()).AnalyzeBranch(target.ID)
	if res == nil {
		return nil
	}
	var hints []PredictionHint
	for _, s := range res.CorrelationSources(p.g) {
		h := PredictionHint{
			SourceLine:      int(p.g.Node(s.Node).Line),
			SourceKind:      s.Kind.String(),
			Interprocedural: !s.SameProc,
		}
		if s.Answer&analysis.AnsTrue != 0 {
			h.Outcome = "true"
		} else {
			h.Outcome = "false"
		}
		if s.Branch != ir.NoNode {
			h.BranchLine = int(p.g.Node(s.Branch).Line)
		}
		hints = append(hints, h)
	}
	return hints
}

// InlinePriority scores a procedure for correlation-directed inlining
// (paper §5, "Procedure inlining"): procedures whose bodies decide other
// procedures' conditionals are the profitable inlining candidates.
type InlinePriority struct {
	Procedure string
	// Conditionals counts branches whose correlation crosses this
	// procedure; Weight adds profile-weighted benefit when a profiled run
	// was supplied.
	Conditionals int
	Weight       int64
}

// InliningPriorities ranks procedures by the interprocedural correlation
// they generate. Pass a RunResult from RunProfiled to weight by execution
// counts, or nil to count statically.
func (p *Program) InliningPriorities(opts Options, profiled *RunResult) []InlinePriority {
	var exec map[ir.NodeID]int64
	if profiled != nil && profiled.NodeCounts != nil {
		exec = make(map[ir.NodeID]int64, len(profiled.NodeCounts))
		for id, c := range profiled.NodeCounts {
			exec[ir.NodeID(id)] = c
		}
	}
	var out []InlinePriority
	for _, pp := range analysis.InliningPriorities(p.g, opts.analysisOpts(), exec) {
		out = append(out, InlinePriority{Procedure: pp.Name, Conditionals: pp.Conds, Weight: pp.Weight})
	}
	return out
}

// AnalyzeConditional runs the correlation analysis for the branch at the
// given source line (the first analyzable branch on that line) and returns
// its report without restructuring. It returns false when no analyzable
// branch exists on the line.
func (p *Program) AnalyzeConditional(line int, opts Options) (CondReport, bool) {
	target := p.branchOnLine(line)
	if target == nil {
		return CondReport{}, false
	}
	res := analysis.New(p.g, opts.analysisOpts()).AnalyzeBranch(target.ID)
	if res == nil {
		return CondReport{}, false
	}
	return CondReport{
		Line:           line,
		Analyzable:     true,
		Correlated:     res.HasCorrelation(),
		Full:           res.FullCorrelation(),
		Answers:        res.RootAnswers().String(),
		DupEstimate:    res.DuplicationEstimate(p.g),
		PairsProcessed: res.PairsProcessed,
	}, true
}
