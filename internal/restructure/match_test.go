package restructure

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// defaultAnalysis is the analysis configuration of icbe.DefaultOptions;
// truncatingAnalysis's termination limit truncates most analyses, whose
// pending queries then resolve UNDEF.
var (
	defaultAnalysis    = analysis.Options{Interprocedural: true, ModSummaries: true, MemoSummaries: true, TerminationLimit: 1000}
	truncatingAnalysis = analysis.Options{Interprocedural: true, ModSummaries: true, MemoSummaries: true, TerminationLimit: 20}
)

// settledCopy returns a clone of p pruned to the sweep's fixpoint and
// settled, as the driver leaves a program it adopted, so forks of it are
// Local; ok is false when the pruned clone does not validate.
func settledCopy(p *ir.Program) (q *ir.Program, ok bool) {
	q = ir.Clone(p)
	pruneProgram(q, uncalledEntries(q))
	if ir.Validate(q) != nil {
		return nil, false
	}
	q.Settle()
	return q, true
}

// matchEliminate analyzes every analyzable branch of p under opts and
// restructures each on two forks of p, one with Eliminate and one with
// refEliminate. Both must return the same Outcome (counts and
// BranchDescendants), the same error text and the same program encoding,
// and p must encode as before: the forks share its nodes and procedure
// headers, so an edit that bypasses Mut or MutProc on either side shows up
// in p. It returns the number of branches that Eliminate split.
func matchEliminate(t testing.TB, label string, p *ir.Program, opts analysis.Options) int {
	t.Helper()
	an := analysis.New(p, opts)
	var branches []ir.NodeID
	p.LiveNodes(func(n *ir.Node) {
		if n.Analyzable() {
			branches = append(branches, n.ID)
		}
	})
	split := 0
	before := ir.EncodeProgram(p)
	for _, b := range branches {
		res := an.AnalyzeBranch(b)
		if res == nil {
			continue
		}
		got, want := ir.Fork(p), ir.Fork(p)
		gotOC, gotErr := Eliminate(got, res)
		wantOC, wantErr := refEliminate(want, res)
		res.Release()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: branch %d: error %v, reference %v", label, b, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotOC, wantOC) {
			t.Fatalf("%s: branch %d: outcome %+v, reference %+v", label, b, gotOC, wantOC)
		}
		if !bytes.Equal(ir.EncodeProgram(got), ir.EncodeProgram(want)) {
			t.Fatalf("%s: branch %d: program differs from the reference\n--- got\n%s\n--- reference\n%s",
				label, b, got.Dump(), want.Dump())
		}
		if !bytes.Equal(ir.EncodeProgram(p), before) {
			t.Fatalf("%s: branch %d: eliminating on forks changed the program forked", label, b)
		}
		if gotOC != nil && gotOC.Splits > 0 {
			split++
		}
	}
	return split
}

// matchBoth compares, and counts the splitting restructurings, under each
// of opts on forks of the compiled program (whole-program region passes)
// and of its settled copy (Local forks, region passes over the touched
// nodes), as the driver's first and later attempts see them.
func matchBoth(t testing.TB, label, src string, opts ...analysis.Options) int {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	q, settled := settledCopy(p)
	n := 0
	for i, o := range opts {
		n += matchEliminate(t, fmt.Sprintf("%s (options %d)", label, i), p, o)
		if settled {
			n += matchEliminate(t, fmt.Sprintf("%s (options %d, settled)", label, i), q, o)
		}
	}
	return n
}

// recursionBench and scaleBench are the randprog configurations of the
// benchmark's `recursion` and `scale-cold` workloads.
var (
	recursionBench = randprog.RecConfig{Chains: 4, ChainLen: 4, Depth: 40, BodyStmts: 60, Globals: 3}
	scaleBench     = randprog.ScaleConfig{Leaves: 20, LeafStmts: 80, Hubs: 6}
)

// TestEliminateMatchesReference pins Eliminate's slot-indexed tables to the
// map-based restructurer it replaced, over the paper programs and generated
// programs of every shape the driver's goldens and the benchmark cover.
func TestEliminateMatchesReference(t *testing.T) {
	type tcase struct {
		name, src string
		opts      []analysis.Options
	}
	both := []analysis.Options{defaultAnalysis, truncatingAnalysis}
	var cases []tcase
	for _, w := range progs.All() {
		cases = append(cases, tcase{w.Name, w.Source, both})
	}
	// Eliminate declines this one with ErrAmbiguousTransparency.
	cases = append(cases, tcase{"self-recursive", `
		var g;
		func dig(n) {
			if (n <= 0) { return 0; }
			if (input() > 100) { g = n; }
			return dig(n - 1);
		}
		func main() {
			g = 1;
			dig(input());
			if (g == 1) { print(1); } else { print(2); }
		}`, both})
	for seed := uint64(0); seed < 12; seed++ {
		cases = append(cases, tcase{fmt.Sprintf("generate-%d", seed),
			randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2}), both})
	}
	for seed := uint64(0); seed < 4; seed++ {
		cases = append(cases, tcase{fmt.Sprintf("generate-default-%d", seed),
			randprog.Generate(seed, randprog.Config{}), both})
	}
	// The benchmark-shaped programs run at the default options only, which
	// keeps the race-detector run near 20 s.
	cases = append(cases,
		tcase{"recursion-1", randprog.Recursion(1, recursionBench), both[:1]},
		tcase{"scale-1", randprog.Scale(1, scaleBench), both[:1]})
	if testing.Short() {
		cases = cases[:8]
	}
	split := 0
	for _, c := range cases {
		split += matchBoth(t, c.name, c.src, c.opts...)
	}
	t.Logf("%d restructurings with splits compared", split)
	if split == 0 {
		t.Fatal("no restructuring split a node")
	}
}

// FuzzEliminateMatchesReference compares Eliminate with the reference on
// generated programs: shape 0 is randprog.Generate, 1 a reduced
// Recursion and 2 a reduced Scale program.
func FuzzEliminateMatchesReference(f *testing.F) {
	for _, s := range []struct {
		seed  uint64
		shape uint8
	}{{1, 0}, {6, 0}, {38, 0}, {3, 1}, {7, 2}} {
		f.Add(s.seed, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		var src string
		switch shape % 3 {
		case 0:
			src = randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2})
		case 1:
			src = randprog.Recursion(seed, randprog.RecConfig{})
		case 2:
			src = randprog.Scale(seed, randprog.ScaleConfig{Globals: 3, Leaves: 12, LeafStmts: 30,
				Hubs: 5, Calls: 5, Conds: 3, ChainLeaves: 2, ChainLen: 2})
		}
		matchBoth(t, fmt.Sprintf("seed %d shape %d", seed, shape), src, defaultAnalysis, truncatingAnalysis)
	})
}
