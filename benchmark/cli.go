package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"icbe"
	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/fold"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/minic"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

// cliWorkload is a closed loop with one client: each op is one call a
// compiler user makes, and the next op starts when the previous one returns.
type cliWorkload struct {
	// programs builds the workload's input set from the seed; small asks for
	// a test-sized set.
	programs func(seed uint64, small bool) []*cliProgram
	// opts configures Compile + Optimize; analyze selects the Table 2 sweep
	// (analysis.New + AnalyzeBranch on every analyzable branch) instead.
	opts    icbe.Options
	analyze bool
}

// cliProgram is one input program with its reference behaviour.
type cliProgram struct {
	src    string
	inputs [][]int64
	graph  *ir.Program      // the unoptimized program, built in setup
	ref    []*interp.Result // its runs, one per input: the reference outputs
	conds  []ir.NodeID      // its analyzable branches, in ID order

	// Executed conditionals and operations summed over the inputs, before
	// (the reference runs) and after optimization (the warm-up op's output).
	condsBefore, opsBefore, condsAfter, opsAfter int64
	// Set by the warm-up op; every later op must reproduce want exactly.
	want                      []byte
	staticBefore, staticAfter int // operation nodes before and after
}

func cliWorkloads() map[string]*cliWorkload {
	full := icbe.DefaultOptions()
	full.Check, full.Verify, full.Fold = true, true, true
	full.Workers = runtime.NumCPU()
	cold := icbe.DefaultOptions()
	cold.Workers = runtime.NumCPU()
	return map[string]*cliWorkload{
		"paper-suite":   {programs: paperPrograms, opts: full},
		"scale-cold":    {programs: scalePrograms(32, randprog.ScaleConfig{Leaves: 20, LeafStmts: 80, Hubs: 6}), opts: cold},
		"recursion":     {programs: recursionPrograms(32), opts: cold},
		"analyze-scale": {programs: scalePrograms(8, randprog.ScaleConfig{Leaves: 80, LeafStmts: 400, Hubs: 24}), analyze: true},
	}
}

// paperPrograms returns the seven paper programs with their Train inputs, in
// a seed-shuffled order. Full-tier verification runs on the same input.
func paperPrograms(seed uint64, small bool) []*cliProgram {
	var out []*cliProgram
	for _, w := range progs.All() {
		out = append(out, &cliProgram{src: w.Source, inputs: [][]int64{w.Train}})
	}
	r := newRand(seed)
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if small {
		out = out[:2]
	}
	return out
}

func scalePrograms(n int, cfg randprog.ScaleConfig) func(uint64, bool) []*cliProgram {
	return func(seed uint64, small bool) []*cliProgram {
		n, cfg := n, cfg
		if small {
			n, cfg = 2, randprog.ScaleConfig{Leaves: 8, LeafStmts: 40, Hubs: 3}
		}
		return generated(seed, n, func(s uint64) string { return randprog.Scale(s, cfg) })
	}
}

func recursionPrograms(n int) func(uint64, bool) []*cliProgram {
	cfg := randprog.RecConfig{Chains: 4, ChainLen: 4, Depth: 40, BodyStmts: 60, Globals: 3}
	return func(seed uint64, small bool) []*cliProgram {
		n := n
		if small {
			n = 2
		}
		return generated(seed, n, func(s uint64) string { return randprog.Recursion(s, cfg) })
	}
}

// generated draws n program seeds and two input streams per program from
// the workload seed.
func generated(seed uint64, n int, gen func(uint64) string) []*cliProgram {
	r := newRand(seed)
	out := make([]*cliProgram, n)
	for i := range out {
		p := &cliProgram{src: gen(r.next())}
		for k := 0; k < 2; k++ {
			in := make([]int64, 8)
			for j := range in {
				in[j] = int64(r.intn(5)) - 2
			}
			p.inputs = append(p.inputs, in)
		}
		out[i] = p
	}
	return out
}

// productionAnalysis is the analysis configuration icbe.Optimize derives
// from its options: the traced run and the Table 2 sweep must use exactly
// what users get.
func productionAnalysis(o icbe.Options) analysis.Options {
	return analysis.Options{
		Interprocedural:  o.Interprocedural,
		TerminationLimit: o.TerminationLimit,
		ArithSubst:       o.ArithSubst,
		ModSummaries:     o.ModSummaries,
		MemoSummaries:    o.Interprocedural,
	}
}

// driverOptions mirrors the restructure.DriverOptions icbe.Optimize builds.
// The traced run checks its output is byte-identical to icbe.Optimize's.
func driverOptions(o icbe.Options) restructure.DriverOptions {
	return restructure.DriverOptions{
		Analysis:       productionAnalysis(o),
		MaxDuplication: o.MaxDuplication,
		FullOnly:       o.FullOnly,
		Workers:        o.Workers,
		Verify:         o.Verify,
		VerifyInputs:   o.VerifyInputs,
		Check:          o.Check || o.CheckFatal,
		Fold:           o.Fold,
		Timeout:        o.Timeout,
		BranchTimeout:  o.BranchTimeout,
		Ctx:            o.Ctx,
		Memo:           o.SummaryMemo,
		SeedRecords:    o.SeedRecords,
		Scratch:        o.Scratch,
	}
}

// runCLI runs one part of a compiler workload: set-up, the timed closed
// loop and, in the last part of a traced run, the traced ops.
func runCLI(w *cliWorkload, cfg runConfig, last bool, pr *prober, o *part) error {
	before := pr.takeN(3)
	t0 := time.Now()
	s, err := w.setup(cfg, o)
	if err != nil {
		return err
	}
	o.SetupS = time.Since(t0).Seconds() * speedScale(append(before, pr.takeN(3)...))
	runtime.GC()
	lat, probes, alloc := s.measure(cfg.partDuration(), cfg.minOps(), pr, o)
	o.Wall, o.Latencies = lat, scaleOps(lat, probes)
	o.AllocMB, o.PeakRSSMB = mb(alloc), peakRSSMB()
	s.quality(o.Vals)
	if !cfg.trace || !last {
		return nil
	}
	t := newTracer()
	// A quarter of the run's untraced ops, or half of --seconds: probes on
	// large programs cost more than the op itself.
	roots := s.traced(t, (len(lat)*cfg.parts()+3)/4, cfg.duration()/2, o.Vals, o)
	o.TracedP50 = median(roots)
	return t.write(cfg.out, cfg.workload)
}

// cliSession is one set-up copy of a workload's inputs.
type cliSession struct {
	w     *cliWorkload
	progs []*cliProgram
}

// setup builds every program, records its reference runs and runs one
// untimed warm-up op per program, which fixes the output later ops must
// reproduce and checks it against the reference runs.
func (w *cliWorkload) setup(cfg runConfig, o *part) (*cliSession, error) {
	s := &cliSession{w: w, progs: w.programs(cfg.seed, cfg.small)}
	for i, p := range s.progs {
		g, err := ir.Build(p.src)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", i, err)
		}
		p.graph = g
		for _, in := range p.inputs {
			res, err := interp.Run(g, interp.Options{Input: in})
			if err != nil {
				return nil, fmt.Errorf("program %d: reference run: %w", i, err)
			}
			p.ref = append(p.ref, res)
			p.condsBefore += res.CondExecs
			p.opsBefore += res.Operations
		}
		g.LiveNodes(func(n *ir.Node) {
			if n.Kind == ir.NBranch && n.Analyzable() {
				p.conds = append(p.conds, n.ID)
			}
		})
		s.warmUp(p, o)
	}
	return s, nil
}

func (s *cliSession) optimize(p *cliProgram) (*icbe.Program, *icbe.Report, error) {
	prog, err := icbe.Compile(p.src)
	if err != nil {
		return nil, nil, err
	}
	opts := s.w.opts
	if opts.Verify {
		opts.VerifyInputs = p.inputs
	}
	return prog.Optimize(opts)
}

// sweep is the Table 2 op: one analyzer, every analyzable branch. It returns
// the pairs processed and an FNV-1a digest of every branch's answer set and
// pair count.
func sweep(conds []ir.NodeID, an *analysis.Analyzer) (pairs int, digest []byte) {
	h := uint64(14695981039346656037)
	for _, b := range conds {
		res := an.AnalyzeBranch(b)
		if res == nil {
			continue
		}
		pairs += res.PairsProcessed
		for _, x := range [...]uint64{uint64(b), uint64(res.RootAnswers()), uint64(res.PairsProcessed)} {
			h = (h ^ x) * 1099511628211
		}
		res.Release()
	}
	return pairs, binary.LittleEndian.AppendUint64(nil, h)
}

// opResult is what one op returned: the sweep's digest, or the optimizer's
// program and report.
type opResult struct {
	digest []byte
	opt    *icbe.Program
	rep    *icbe.Report
	err    error
}

// runOp performs one op; it is the only timed call.
func (s *cliSession) runOp(p *cliProgram) opResult {
	if s.w.analyze {
		_, digest := sweep(p.conds, analysis.New(p.graph, productionAnalysis(icbe.DefaultOptions())))
		return opResult{digest: digest}
	}
	opt, rep, err := s.optimize(p)
	return opResult{opt: opt, rep: rep, err: err}
}

// output returns the bytes every repetition of the op must reproduce — the
// sweep's digest or the encoded optimized program — or why the op failed.
func (r opResult) output() ([]byte, error) {
	switch {
	case r.err != nil:
		return nil, r.err
	case r.digest != nil:
		return r.digest, nil
	case r.rep.Truncated:
		return nil, fmt.Errorf("optimization truncated")
	}
	return ir.EncodeProgram(r.opt.Graph()), nil
}

func (s *cliSession) warmUp(p *cliProgram, o *part) {
	o.Attempted++
	r := s.runOp(p)
	out, err := r.output()
	if err != nil {
		o.fail("warm-up: %v", err)
		return
	}
	if r.opt != nil {
		for i, in := range p.inputs {
			res, err := interp.Run(r.opt.Graph(), interp.Options{Input: in})
			ref := p.ref[i]
			switch {
			case err != nil:
				o.fail("optimized program: %v", err)
				return
			case !slices.Equal(res.Output, ref.Output):
				o.fail("optimized program's output differs from the reference")
				return
			case res.Operations > ref.Operations:
				o.fail("optimized program executed %d operations, the reference %d", res.Operations, ref.Operations)
				return
			}
			p.condsAfter += res.CondExecs
			p.opsAfter += res.Operations
		}
		p.staticBefore, p.staticAfter = r.rep.OperationsBefore, r.rep.OperationsAfter
	}
	p.want = out
}

// measure runs whole cycles over the program set until d has passed and at
// least minOps ops ran, with a host-speed probe before every op and after the
// last. It returns the per-op latencies in ms, the probe times (probes[i] just
// before op i) and the bytes allocated during ops.
func (s *cliSession) measure(d time.Duration, minOps int, pr *prober, o *part) (lat, probes []float64, alloc uint64) {
	probes = append(probes, pr.take())
	start := time.Now()
	for time.Since(start) < d || len(lat) < minOps {
		for _, p := range s.progs {
			a0 := heapAllocs()
			t0 := time.Now()
			r := s.runOp(p)
			el := time.Since(t0)
			alloc += heapAllocs() - a0
			probes = append(probes, pr.take())
			lat = append(lat, ms(el))
			o.Attempted++
			if out, err := r.output(); err != nil {
				o.fail("%v", err)
			} else if !bytes.Equal(out, p.want) {
				o.fail("op output differs from the warm-up op's")
			}
		}
	}
	return lat, probes, alloc
}

// quality adds the per-layer metrics fixed by the warm-up ops: the paper's
// benefit (executed conditionals and operations removed, geometric mean over
// programs) and cost (static operation growth).
func (s *cliSession) quality(v map[string]float64) {
	if s.w.analyze {
		return
	}
	var lc, lo, lg float64
	for _, p := range s.progs {
		lc += math.Log(ratio(p.condsAfter, p.condsBefore))
		lo += math.Log(ratio(p.opsAfter, p.opsBefore))
		lg += math.Log(ratio(int64(p.staticAfter), int64(p.staticBefore)))
	}
	n := float64(len(s.progs))
	v["interp.dyn_cond_removed_pct"] = 100 * (1 - math.Exp(lc/n))
	v["interp.dyn_ops_removed_pct"] = 100 * (1 - math.Exp(lo/n))
	v["ir.code_growth_pct"] = 100 * (math.Exp(lg/n) - 1)
}

func ratio(a, b int64) float64 {
	if a == b {
		return 1
	}
	return float64(a) / float64(b)
}

// traced runs whole cycles of ops with spans around each layer call: a root
// span per op whose children follow icbe.Compile and icbe.Optimize call by
// call (or the sweep's two calls), then probe spans outside the root that
// time single layers on the op's input program. It stops after the cycle that
// reaches ops ops or passes d. It adds the per-layer metrics to v and returns
// the root spans' durations in ms.
func (s *cliSession) traced(t *tracer, ops int, d time.Duration, v map[string]float64, o *part) []float64 {
	var roots []float64
	var st restructure.DriverStats
	var applied, skipped, rollbacks, pairs int
	var sweepMS float64
	timedSweep := func(parent int, p *cliProgram) (digest []byte) {
		var an *analysis.Analyzer
		t.do("analysis.New", parent, func() { an = analysis.New(p.graph, productionAnalysis(icbe.DefaultOptions())) })
		var n int
		sweepMS += ms(t.do("analysis.sweep", parent, func() { n, digest = sweep(p.conds, an) }))
		pairs += n
		return digest
	}
	start := time.Now()
	for len(roots) < ops && (len(roots) == 0 || time.Since(start) < d) {
		for _, p := range s.progs {
			t.beginOp()
			o.Attempted++
			var out []byte
			root := t.open("op", 0)
			if s.w.analyze {
				out = timedSweep(root, p)
			} else if dr := s.tracedOptimize(t, root, p); dr != nil {
				out = ir.EncodeProgram(dr.Program)
				addStats(&st, dr.Stats)
				applied += dr.Optimized
				for _, r := range dr.Reports {
					if r.Skipped {
						skipped++
					}
				}
				for _, n := range dr.Stats.Failures {
					rollbacks += n
				}
			}
			roots = append(roots, ms(t.close(root)))
			if !bytes.Equal(out, p.want) {
				o.fail("traced op output differs from the untraced op's")
			}
			if s.w.analyze {
				t.do("ir.Validate", 0, func() { _ = ir.Validate(p.graph) })
			} else {
				timedSweep(0, p)
			}
			s.probe(t, p)
		}
	}
	for metric, span := range map[string]string{
		"minic.parse_ms": "minic.Parse", "minic.sema_ms": "minic.Check", "ir.lower_ms": "ir.BuildAST",
		"ir.validate_ms": "ir.Validate", "ir.clone_ms": "ir.Clone", "ir.encode_ms": "ir.EncodeProgram",
		"ir.hash_ms": "ir.HashProgram", "restructure.optimize_ms": "restructure.Optimize",
		"analysis.index_ms": "analysis.New", "analysis.sweep_ms": "analysis.sweep",
		"check.sccp_ms": "check.RunSCCP", "check.lint_ms": "check.AnalyzeWith",
		"fold.analyze_ms": "fold.Analyze", "interp.ref_ms": "interp.Run",
	} {
		v[metric] = t.meanMS(span)
	}
	n := float64(t.ops)
	per := func(x int) float64 { return float64(x) / n }
	perMS := func(d time.Duration) float64 { return ms(d) / n }
	v["analysis.pairs"] = per(pairs)
	v["analysis.pairs_per_ms"] = float64(pairs) / sweepMS

	// Ops cover whole cycles, so a per-op mean is a per-program mean.
	var tokens, nodes int
	var condsBefore, opsBefore, condsAfter, opsAfter int64
	for _, p := range s.progs {
		toks, _ := minic.LexAll(p.src)
		tokens += len(toks)
		nodes += ir.Collect(p.graph).AllNodes
		condsBefore += p.condsBefore
		opsBefore += p.opsBefore
		condsAfter += p.condsAfter
		opsAfter += p.opsAfter
	}
	progs := float64(len(s.progs))
	v["minic.tokens"] = float64(tokens) / progs
	v["ir.nodes"] = float64(nodes) / progs
	if s.w.analyze {
		return roots
	}
	v["interp.cond_execs_before"] = float64(condsBefore) / progs
	v["interp.ops_before"] = float64(opsBefore) / progs
	v["interp.cond_execs_after"] = float64(condsAfter) / progs
	v["interp.ops_after"] = float64(opsAfter) / progs

	v["restructure.apply_ms"] = perMS(st.ApplyWall)
	// Driver time outside its timed analysis, apply and fold phases: the
	// input clone, round bookkeeping, memo commits, the check baseline.
	v["restructure.self_ms"] = v["restructure.optimize_ms"] - perMS(st.AnalysisWall+st.ApplyWall+st.FoldWall)
	v["restructure.rounds"] = per(st.Rounds)
	v["restructure.applied"] = per(applied)
	v["restructure.clones"] = per(st.Clones)
	v["restructure.clones_avoided"] = per(st.ClonesAvoided)
	v["restructure.rollbacks"] = per(rollbacks)
	v["restructure.skipped"] = per(skipped)
	v["analysis.driver_wall_ms"] = perMS(st.AnalysisWall)
	v["analysis.analyses"] = per(st.Analyses)
	v["analysis.reanalyses"] = per(st.Reanalyses)
	v["analysis.reuse_ratio"] = float64(st.QueriesReused) / float64(st.PairsTotal)
	v["analysis.memo_hits"] = float64(st.SNEMemoHits) / n
	v["analysis.memo_bytes"] = float64(st.CacheBytes) / n
	v["analysis.subtrees_invalidated"] = float64(st.SubtreesInvalidated) / n
	v["check.gate_ms"] = perMS(st.CheckWall)
	v["check.runs"] = per(st.CheckRuns)
	v["check.agreements"] = per(st.SCCPAgreements)
	v["check.disagreements"] = per(st.SCCPDisagreements)
	v["fold.wall_ms"] = perMS(st.FoldWall)
	v["fold.attempted"] = per(st.FoldAttempted)
	v["fold.applied"] = per(st.FoldApplied)
	if st.FoldAttempted > 0 {
		v["fold.adopt_ratio"] = float64(st.FoldApplied) / float64(st.FoldAttempted)
	}
	v["verify.wall_ms"] = perMS(st.VerifyWall)
	v["verify.runs"] = per(st.VerifyRuns)
	return roots
}

// tracedOptimize is icbe.Compile followed by icbe.Optimize, one span per
// layer call. It returns nil when the program does not compile.
func (s *cliSession) tracedOptimize(t *tracer, root int, p *cliProgram) *restructure.DriverResult {
	var ast *minic.Program
	var info *minic.Info
	var g *ir.Program
	var err error
	if t.do("minic.Parse", root, func() { ast, err = minic.Parse(p.src) }); err != nil {
		return nil
	}
	if t.do("minic.Check", root, func() { info, err = minic.Check(ast) }); err != nil {
		return nil
	}
	if t.do("ir.BuildAST", root, func() { g, err = ir.BuildAST(ast, info) }); err != nil {
		return nil
	}
	g.SourceLines = strings.Count(p.src, "\n") + 1
	if t.do("ir.Validate", root, func() { err = ir.Validate(g) }); err != nil {
		return nil
	}
	opts := s.w.opts
	if opts.Verify {
		opts.VerifyInputs = p.inputs
	}
	var dr *restructure.DriverResult
	t.do("restructure.Optimize", root, func() { dr = restructure.Optimize(g, driverOptions(opts)) })
	return dr
}

// probe times single layers on the op's input, outside the op's root span.
func (s *cliSession) probe(t *tracer, p *cliProgram) {
	g := p.graph
	t.do("ir.Clone", 0, func() { ir.Clone(g) })
	t.do("ir.EncodeProgram", 0, func() { ir.EncodeProgram(g) })
	t.do("ir.HashProgram", 0, func() { ir.HashProgram(g) })
	var sc *check.SCCP
	t.do("check.RunSCCP", 0, func() { sc = check.RunSCCP(g) })
	t.do("check.AnalyzeWith", 0, func() { check.AnalyzeWith(g, sc, invariantPasses) })
	t.do("fold.Analyze", 0, func() { fold.Analyze(g) })
	for _, in := range p.inputs {
		t.do("interp.Run", 0, func() { _, _ = interp.Run(g, interp.Options{Input: in}) })
	}
}

// invariantPasses holds every check pass of kind Invariant.
var invariantPasses = func() []check.Pass {
	var out []check.Pass
	for _, ps := range check.Passes() {
		if ps.Kind() == check.Invariant {
			out = append(out, ps)
		}
	}
	return out
}()

// addStats sums the counters of one driver run into acc.
func addStats(acc *restructure.DriverStats, s restructure.DriverStats) {
	acc.Rounds += s.Rounds
	acc.Analyses += s.Analyses
	acc.Reanalyses += s.Reanalyses
	acc.Clones += s.Clones
	acc.ClonesAvoided += s.ClonesAvoided
	acc.SNEMemoHits += s.SNEMemoHits
	acc.CacheBytes += s.CacheBytes
	acc.QueriesReused += s.QueriesReused
	acc.SubtreesInvalidated += s.SubtreesInvalidated
	acc.PairsTotal += s.PairsTotal
	acc.VerifyRuns += s.VerifyRuns
	acc.CheckRuns += s.CheckRuns
	acc.SCCPAgreements += s.SCCPAgreements
	acc.SCCPDisagreements += s.SCCPDisagreements
	acc.FoldAttempted += s.FoldAttempted
	acc.FoldApplied += s.FoldApplied
	acc.AnalysisWall += s.AnalysisWall
	acc.ApplyWall += s.ApplyWall
	acc.VerifyWall += s.VerifyWall
	acc.CheckWall += s.CheckWall
	acc.FoldWall += s.FoldWall
}
