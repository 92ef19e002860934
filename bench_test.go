package icbe

// The benchmarks regenerate every table and figure of the paper's
// evaluation (§4) and report their key quantities as custom metrics:
//
//	BenchmarkTable1    — benchmark characteristics (Table 1)
//	BenchmarkTable2    — analysis cost (Table 2)
//	BenchmarkFigure9   — statically detectable correlation (Figure 9)
//	BenchmarkFigure10  — per-conditional cost/benefit (Figure 10)
//	BenchmarkFigure11  — reduction vs code growth sweep (Figure 11)
//	BenchmarkHeadline  — the 3–18% / ~2.5× headline claims
//
// plus ablation benchmarks for the design choices called out in DESIGN.md:
// MOD summaries, arithmetic back-substitution, the analysis termination
// limit, and the query-answer cache the paper found counterproductive.

import (
	"fmt"
	"runtime"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/experiments"
	"icbe/internal/ir"
	"icbe/internal/minic"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(progs.All())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var dyn float64
			for _, r := range rows {
				dyn += r.DynamicPct
			}
			b.ReportMetric(dyn/float64(len(rows)), "dyn-cond-%")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(progs.All(), experiments.PaperTerminationLimit)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			total := 0
			for _, r := range rows {
				total += r.PairsTotal
			}
			b.ReportMetric(float64(total), "node-query-pairs")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(progs.All())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var intra, inter float64
			for _, r := range rows {
				intra += r.IntraSomePct
				inter += r.InterSomePct
			}
			b.ReportMetric(inter/float64(len(rows)), "inter-some-%")
			b.ReportMetric(intra/float64(len(rows)), "intra-some-%")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		intra, inter, err := experiments.Figure10(progs.All())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(intra)), "intra-points")
			b.ReportMetric(float64(len(inter)), "inter-points")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure11(progs.All(),
			experiments.PaperTerminationLimit, experiments.PaperDupLimits)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var best float64
			for _, r := range rows {
				best += r.Inter[len(r.Inter)-1].CondReductionPct
			}
			b.ReportMetric(best/float64(len(rows)), "inter-reduction-%")
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.ComputeHeadline(progs.All(),
			experiments.PaperTerminationLimit, experiments.PaperDupLimits)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(h.MatchedGrowthRatio, "inter/intra-ratio")
			b.ReportMetric(h.FullCorrMaxPct, "full-corr-max-%")
			b.ReportMetric(h.FullCorrMinPct, "full-corr-min-%")
		}
	}
}

// analyzeAllConds analyzes every analyzable conditional of every workload
// with the given options, returning total pairs processed.
func analyzeAllConds(b *testing.B, opts analysis.Options) int {
	b.Helper()
	total := 0
	for _, w := range progs.All() {
		p, err := ir.Build(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		an := analysis.New(p, opts)
		p.LiveNodes(func(n *ir.Node) {
			if n.Kind == ir.NBranch && n.Analyzable() {
				if res := an.AnalyzeBranch(n.ID); res != nil {
					total += res.PairsProcessed
				}
			}
		})
	}
	return total
}

// BenchmarkAblationModSummaries measures the analysis-cost effect of MOD
// summary information at call sites.
func BenchmarkAblationModSummaries(b *testing.B) {
	base := analysis.Options{Interprocedural: true, TerminationLimit: 1000}
	with := base
	with.ModSummaries = true
	for i := 0; i < b.N; i++ {
		without := analyzeAllConds(b, base)
		withMod := analyzeAllConds(b, with)
		if i == 0 {
			b.ReportMetric(float64(without), "pairs-noMOD")
			b.ReportMetric(float64(withMod), "pairs-MOD")
		}
	}
}

// BenchmarkAblationArithSubst measures how much correlation arithmetic
// back-substitution adds beyond the paper's copy-only substitution.
func BenchmarkAblationArithSubst(b *testing.B) {
	count := func(arith bool) int {
		found := 0
		for _, w := range progs.All() {
			p, err := ir.Build(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			an := analysis.New(p, analysis.Options{
				Interprocedural: true, ModSummaries: true, ArithSubst: arith,
				TerminationLimit: 1000,
			})
			p.LiveNodes(func(n *ir.Node) {
				if n.Kind == ir.NBranch && n.Analyzable() {
					if res := an.AnalyzeBranch(n.ID); res != nil && res.HasCorrelation() {
						found++
					}
				}
			})
		}
		return found
	}
	for i := 0; i < b.N; i++ {
		plain := count(false)
		arith := count(true)
		if i == 0 {
			b.ReportMetric(float64(plain), "correlated-copyonly")
			b.ReportMetric(float64(arith), "correlated-arith")
		}
	}
}

// BenchmarkAblationTerminationLimit sweeps the analysis budget (paper §4
// "Analysis Cost": 1000 pairs per conditional suffices in practice).
func BenchmarkAblationTerminationLimit(b *testing.B) {
	for _, limit := range []int{100, 1000, 0} {
		limit := limit
		name := "unlimited"
		if limit > 0 {
			name = ""
		}
		b.Run(benchName(limit, name), func(b *testing.B) {
			opts := analysis.Options{Interprocedural: true, ModSummaries: true, TerminationLimit: limit}
			for i := 0; i < b.N; i++ {
				pairs := analyzeAllConds(b, opts)
				if i == 0 {
					b.ReportMetric(float64(pairs), "pairs")
				}
			}
		})
	}
}

func benchName(limit int, name string) string {
	if name != "" {
		return name
	}
	return "limit" + itoa(limit)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationQueryCache reproduces the paper's query-caching
// tradeoff: fewer node-query pairs, more memory (the paper found the cache
// counterproductive overall).
func BenchmarkAblationQueryCache(b *testing.B) {
	run := func(cache bool) (pairs int, bytes int64) {
		for _, w := range progs.All() {
			p, err := ir.Build(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			an := analysis.New(p, analysis.Options{
				Interprocedural: true, ModSummaries: true, CacheAnswers: cache,
			})
			p.LiveNodes(func(n *ir.Node) {
				if n.Kind == ir.NBranch && n.Analyzable() {
					if res := an.AnalyzeBranch(n.ID); res != nil {
						pairs += res.PairsProcessed
					}
				}
			})
			bytes += an.CacheBytes()
		}
		return pairs, bytes
	}
	for i := 0; i < b.N; i++ {
		plainPairs, _ := run(false)
		cachedPairs, cacheBytes := run(true)
		if i == 0 {
			b.ReportMetric(float64(plainPairs), "pairs-nocache")
			b.ReportMetric(float64(cachedPairs), "pairs-cached")
			b.ReportMetric(float64(cacheBytes), "cache-bytes")
		}
	}
}

// BenchmarkOptimizeWorkloads measures the end-to-end optimizer on every
// workload (analysis + restructuring, paper configuration).
func BenchmarkOptimizeWorkloads(b *testing.B) {
	for _, w := range progs.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			p, err := Compile(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultOptions()
			for i := 0; i < b.N; i++ {
				_, rep, _ := p.Optimize(opts)
				if rep.Optimized == 0 {
					b.Fatal("nothing optimized")
				}
			}
		})
	}
}

// BenchmarkInterpreter measures the profiling interpreter on the ref
// inputs (the substrate for all dynamic numbers).
func BenchmarkInterpreter(b *testing.B) {
	for _, w := range progs.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			p, err := Compile(w.Source)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(w.Ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInliningVsICBE compares the paper's §5 alternatives: ICBE
// interprocedural restructuring vs exhaustive inlining followed by
// intraprocedural elimination — same eliminations, different code growth.
func BenchmarkInliningVsICBE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.InliningComparison(progs.All(),
			experiments.PaperTerminationLimit, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var icbeG, inlG, icbeR, inlR float64
			for _, r := range rows {
				icbeG += r.ICBEGrowthPct
				inlG += r.InlineGrowthPct
				icbeR += r.ICBEReductionPct
				inlR += r.InlineReductionPct
			}
			n := float64(len(rows))
			b.ReportMetric(icbeG/n, "icbe-growth-%")
			b.ReportMetric(inlG/n, "inline-growth-%")
			b.ReportMetric(icbeR/n, "icbe-reduction-%")
			b.ReportMetric(inlR/n, "inline-reduction-%")
		}
	}
}

// BenchmarkHeuristicComparison measures the paper's suggested profile-
// guided benefit gate against the growth-only limit.
func BenchmarkHeuristicComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HeuristicComparison(progs.All(), experiments.PaperTerminationLimit)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var limG, benG float64
			for _, r := range rows {
				limG += r.LimitGrowthPct
				benG += r.Ben25GrowthPct
			}
			n := float64(len(rows))
			b.ReportMetric(limG/n, "limit-growth-%")
			b.ReportMetric(benG/n, "benefit25-growth-%")
		}
	}
}

// BenchmarkDriverWorkers measures the two-phase optimization driver on the
// whole corpus for serial and NumCPU-wide analysis phases. Clone avoidance
// is the hard acceptance check: the driver must perform strictly fewer
// ir.Clone calls than it performs analyses (the previous driver cloned the
// whole program once per analyzed conditional); wall-clock time per worker
// count is the benchmark's own measurement.
func BenchmarkDriverWorkers(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var clones, analyses, avoided int
			for i := 0; i < b.N; i++ {
				clones, analyses, avoided = 0, 0, 0
				for _, w := range progs.All() {
					p, err := ir.Build(w.Source)
					if err != nil {
						b.Fatal(err)
					}
					dr := restructure.Optimize(p, restructure.DriverOptions{
						Analysis: analysis.Options{Interprocedural: true,
							ModSummaries: true, TerminationLimit: 1000},
						MaxDuplication: 100,
						Workers:        workers,
					})
					clones += dr.Stats.Clones
					analyses += dr.Stats.Analyses
					avoided += dr.Stats.ClonesAvoided
				}
			}
			if clones >= analyses {
				b.Fatalf("clone avoidance ineffective: %d clones for %d analyses", clones, analyses)
			}
			b.ReportMetric(float64(clones), "clones")
			b.ReportMetric(float64(avoided), "clones-avoided")
			b.ReportMetric(float64(analyses), "analyses")
		})
	}
}

// coldShapes are the benchmark's `recursion` and `scale-cold` program
// shapes: their randprog configurations, program seeds 1–8.
var coldShapes = []struct {
	name string
	gen  func(seed uint64) string
}{
	{"recursion", func(s uint64) string {
		return randprog.Recursion(s, randprog.RecConfig{Chains: 4, ChainLen: 4, Depth: 40, BodyStmts: 60, Globals: 3})
	}},
	{"scale-cold", func(s uint64) string {
		return randprog.Scale(s, randprog.ScaleConfig{Leaves: 20, LeafStmts: 80, Hubs: 6})
	}},
}

func coldSources(gen func(uint64) string) []string {
	var srcs []string
	for seed := uint64(1); seed <= 8; seed++ {
		srcs = append(srcs, gen(seed))
	}
	return srcs
}

// BenchmarkColdShapes measures one cold Compile + Optimize(DefaultOptions)
// per op on the coldShapes programs, cycled, with the analysis phase NumCPU
// wide. Run it with -benchmem (or read its allocs) for the in-process
// numbers quoted in ROADMAP.md.
func BenchmarkColdShapes(b *testing.B) {
	opts := DefaultOptions()
	opts.Workers = runtime.NumCPU()
	for _, sh := range coldShapes {
		b.Run(sh.name, func(b *testing.B) {
			srcs := coldSources(sh.gen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := Compile(srcs[i%len(srcs)])
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := p.Optimize(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the front end's layers on the coldShapes
// programs, cycled: minic.Parse, minic.Check (on a parsed AST), ir.BuildAST
// (on a checked AST) and the whole Compile. Besides allocs it reports
// B/srcbyte, the bytes allocated per byte of source text.
func BenchmarkCompile(b *testing.B) {
	for _, sh := range coldShapes {
		srcs := coldSources(sh.gen)
		type checked struct {
			ast  *minic.Program
			info *minic.Info
		}
		asts := make([]checked, len(srcs))
		srcBytes := 0
		for i, src := range srcs {
			srcBytes += len(src)
			ast, err := minic.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			info, err := minic.Check(ast)
			if err != nil {
				b.Fatal(err)
			}
			asts[i] = checked{ast, info}
		}
		layers := []struct {
			name string
			run  func(i int) error
		}{
			{"Parse", func(i int) error { _, err := minic.Parse(srcs[i]); return err }},
			{"Check", func(i int) error { _, err := minic.Check(asts[i].ast); return err }},
			{"BuildAST", func(i int) error { _, err := ir.BuildAST(asts[i].ast, asts[i].info); return err }},
			{"Compile", func(i int) error { _, err := Compile(srcs[i]); return err }},
		}
		for _, l := range layers {
			b.Run(sh.name+"/"+l.name, func(b *testing.B) {
				b.ReportAllocs()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := l.run(i % len(srcs)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				perSrcByte := float64(len(srcs)) / float64(srcBytes)
				b.ReportMetric(float64(ms.TotalAlloc-before)/float64(b.N)*perSrcByte, "B/srcbyte")
			})
		}
	}
}
