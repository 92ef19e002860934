package icbe

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icbe/internal/analysis"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// update regenerates the equivalence goldens under testdata/equivalence/.
// The goldens were produced by the pre-index map-based analysis and pin the
// full observable Report (answers, pair counts, restructuring decisions,
// optimized-program hash, executed output): any representation change in the
// analysis core must reproduce them byte for byte.
var update = flag.Bool("update", false, "rewrite equivalence golden files")

// equivalenceSeeds mirrors the FuzzOptimize seed corpus so the goldens cover
// the same generated programs the differential fuzzer exercises.
var equivalenceSeeds = []uint64{0, 1, 2, 3, 7, 11, 42, 99, 1234, 0xdeadbeef}

// renderEquivalence runs one full Optimize and renders every deterministic
// observable into a canonical text form: the per-conditional reports, the
// run totals, a hash of the optimized ICFG, and the optimized program's
// behavior on the given inputs. Wall-clock stats and Workers are excluded —
// everything rendered here is contractually identical across worker counts.
func renderEquivalence(t *testing.T, src string, inputs [][]int64, opts Options) string {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, _ := renderOptimized(t, p, inputs, opts)
	return out
}

// renderOptimized is renderEquivalence on a compiled program; it also
// returns the run's report.
func renderOptimized(t *testing.T, p *Program, inputs [][]int64, opts Options) (string, *Report) {
	t.Helper()
	opt, rep, err := p.Optimize(opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	var b strings.Builder
	for _, c := range rep.Conditionals {
		fmt.Fprintf(&b, "cond line=%d analyzable=%v correlated=%v full=%v answers=%s dup=%d pairs=%d applied=%v skipped=%v failure=%q\n",
			c.Line, c.Analyzable, c.Correlated, c.Full, c.Answers, c.DupEstimate,
			c.PairsProcessed, c.Applied, c.Skipped, c.FailureKind)
	}
	fmt.Fprintf(&b, "optimized=%d pairsTotal=%d opsBefore=%d opsAfter=%d truncated=%v\n",
		rep.Optimized, rep.PairsTotal, rep.OperationsBefore, rep.OperationsAfter, rep.Truncated)
	fmt.Fprintf(&b, "analyses=%d reanalyses=%d clones=%d clonesAvoided=%d failures=%q\n",
		rep.Stats.Analyses, rep.Stats.Reanalyses, rep.Stats.Clones, rep.Stats.ClonesAvoided,
		rep.FailureSummary())
	if opts.Fold {
		// Only rendered when the fold pass ran, so the pre-fold goldens stay
		// byte-identical.
		fmt.Fprintf(&b, "fold attempted=%d applied=%d duplicated=%d residual=%d->%d\n",
			rep.Stats.FoldAttempted, rep.Stats.FoldApplied, rep.Stats.FoldDuplicated,
			rep.Stats.SCCPResidualBefore, rep.Stats.SCCPResidualAfter)
	}
	fmt.Fprintf(&b, "programSHA=%x\n", sha256.Sum256([]byte(opt.Dump())))
	for _, in := range inputs {
		res, err := opt.Run(in)
		if err != nil {
			fmt.Fprintf(&b, "run input=%v err=%v\n", in, err)
			continue
		}
		fmt.Fprintf(&b, "run input=%v output=%v ops=%d conds=%d\n", in, res.Output, res.Operations, res.Conditionals)
	}
	return b.String(), rep
}

// equivalenceConfigs are the option sets pinned by the goldens. Verify stays
// off (it never changes the outcome on these corpora, only stats) and the
// paper's termination limit stays at its default so the analysis runs
// untruncated, where its results are worker-count independent.
func equivalenceConfigs() map[string]Options {
	inter := DefaultOptions()
	intra := IntraOptions()
	limited := DefaultOptions()
	limited.MaxDuplication = 100
	return map[string]Options{"inter": inter, "intra": intra, "dup100": limited}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "equivalence", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestEquivalence -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("output diverged from the map-based seed analysis\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestScratchIncrementalEquivalence asserts the incremental engine is
// invisible in every observable: a driver run with the cross-round engine
// disabled (Options.Scratch) renders byte-identically — per-conditional
// reports, counters, optimized-program hash, executed behavior — to a run
// with a caller-supplied summary memo (Options.SummaryMemo; a default run
// keeps none), for every workload, generated program, and worker count.
// The incremental engine may only change the cost of an answer, never the
// answer.
func TestScratchIncrementalEquivalence(t *testing.T) {
	type workload struct {
		name   string
		src    string
		inputs [][]int64
	}
	var cases []workload
	for _, w := range progs.All() {
		cases = append(cases, workload{name: w.Name, src: w.Source, inputs: [][]int64{w.Train, w.Ref}})
	}
	fuzzInputs := [][]int64{nil, {1, 2, 3}, {-5, 0, 7, 9, 1 << 40}}
	for _, seed := range equivalenceSeeds {
		cases = append(cases, workload{
			name:   fmt.Sprintf("randprog-%d", seed),
			src:    randprog.Generate(seed, fuzzConfig),
			inputs: fuzzInputs,
		})
	}
	// Reduced deep-recursion instances: cyclic call graphs whose summaries
	// settle by fixed point, the entry/exit-splitting stress shape.
	for _, seed := range recursionSeeds {
		cases = append(cases, workload{
			name:   fmt.Sprintf("recursion-%d", seed),
			src:    randprog.Recursion(seed, randprog.RecConfig{}),
			inputs: [][]int64{{0}, {5}, {-3}},
		})
	}
	// A reduced hub-and-leaf scale program, so the shape the stress
	// benchmark gates on is pinned by the equivalence contract too.
	for _, seed := range scaleSeeds {
		cases = append(cases, workload{
			name:   fmt.Sprintf("scale-%d", seed),
			src:    randprog.Scale(seed, reducedScale),
			inputs: scaleInputs,
		})
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			golden := ""
			for _, workers := range []int{1, 4, -1} {
				opts := DefaultOptions()
				opts.Timeout = 2 * time.Minute
				opts.Workers = workers
				opts.Scratch = true
				want := renderEquivalence(t, w.src, w.inputs, opts)
				opts.Scratch = false
				opts.SummaryMemo = analysis.NewSummaryMemo()
				got := renderEquivalence(t, w.src, w.inputs, opts)
				if got != want {
					t.Errorf("workers=%d: incremental run diverged from scratch:\n--- scratch\n%s--- incremental\n%s",
						workers, want, got)
				}
				if golden == "" {
					golden = want
				} else if want != golden {
					t.Errorf("workers=%d: scratch run diverged from workers=1", workers)
				}
			}
		})
	}
}

// reducedScale is a small hub-and-leaf Scale configuration: the shape the
// stress benchmark gates on, cheap enough for every test run.
var reducedScale = randprog.ScaleConfig{
	Globals: 3, Leaves: 12, LeafStmts: 30, Hubs: 5, Calls: 5, Conds: 3,
	ChainLeaves: 2, ChainLen: 2,
}

var (
	scaleSeeds  = []uint64{1, 7}
	scaleInputs = [][]int64{{0}, {5}}
)

// TestWarmMemoReanalysisReuse pins the summary memo's one job with a count
// rather than a clock. Optimizing a reduced Scale program leaves the memo
// warm with records valid for the settled program; optimizing the settled
// program again must then rebuild at least 80% of its pairs from those
// records, and must render byte-identically to a Scratch run. Every
// conditional's top level is propagated fresh, so the bound sits below the
// summary-owned share: 594 of 723 pairs (82.2%) for both seeds here, 98% on
// the full stress program, whose leaves are far larger.
func TestWarmMemoReanalysisReuse(t *testing.T) {
	for _, seed := range scaleSeeds {
		t.Run(fmt.Sprintf("scale-%d", seed), func(t *testing.T) {
			t.Parallel()
			p, err := Compile(randprog.Scale(seed, reducedScale))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opts := DefaultOptions()
			opts.TerminationLimit = 0
			opts.Timeout = 2 * time.Minute
			opts.SummaryMemo = analysis.NewSummaryMemo()
			settled, _, err := p.Optimize(opts)
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			got, rep := renderOptimized(t, settled, scaleInputs, opts)
			rate := float64(rep.Stats.QueriesReused) / float64(rep.PairsTotal)
			t.Logf("re-analysis reused %d of %d pairs (%.1f%%)", rep.Stats.QueriesReused, rep.PairsTotal, 100*rate)
			if rate < 0.8 {
				t.Errorf("warm re-analysis reused %d of %d pairs (%.1f%%), want at least 80%%",
					rep.Stats.QueriesReused, rep.PairsTotal, 100*rate)
			}
			scratch := opts
			scratch.SummaryMemo = nil
			scratch.Scratch = true
			if want, _ := renderOptimized(t, settled, scaleInputs, scratch); got != want {
				t.Errorf("warm re-analysis diverged from scratch:\n--- scratch\n%s--- warm\n%s", want, got)
			}
		})
	}
}

// TestEquivalenceGolden asserts the analysis + restructuring pipeline
// produces byte-identical reports and optimized programs to the seed
// map-based implementation, across every benchmark workload and the fuzz
// seed corpus, for serial and parallel drivers alike.
func TestEquivalenceGolden(t *testing.T) {
	type workload struct {
		name   string
		src    string
		inputs [][]int64
	}
	var cases []workload
	for _, w := range progs.All() {
		cases = append(cases, workload{name: w.Name, src: w.Source, inputs: [][]int64{w.Train, w.Ref}})
	}
	fuzzInputs := [][]int64{nil, {1, 2, 3}, {-5, 0, 7, 9, 1 << 40}}
	for _, seed := range equivalenceSeeds {
		cases = append(cases, workload{
			name:   fmt.Sprintf("randprog-%d", seed),
			src:    randprog.Generate(seed, fuzzConfig),
			inputs: fuzzInputs,
		})
	}
	for _, seed := range recursionSeeds {
		cases = append(cases, workload{
			name:   fmt.Sprintf("recursion-%d", seed),
			src:    randprog.Recursion(seed, randprog.RecConfig{}),
			inputs: [][]int64{{0}, {5}, {-3}},
		})
	}
	configs := equivalenceConfigs()
	for cfgName, base := range configs {
		for _, w := range cases {
			t.Run(cfgName+"/"+w.name, func(t *testing.T) {
				t.Parallel()
				opts := base
				opts.Timeout = 2 * time.Minute
				golden := ""
				for _, workers := range []int{1, 4, -1} {
					opts.Workers = workers
					got := renderEquivalence(t, w.src, w.inputs, opts)
					if golden == "" {
						golden = got
						checkGolden(t, cfgName+"-"+w.name, got)
						continue
					}
					if got != golden {
						t.Errorf("workers=%d diverged from workers=1:\n--- workers=1\n%s--- workers=%d\n%s",
							workers, golden, workers, got)
					}
				}
			})
		}
	}
}
