package experiments

import (
	"strings"
	"testing"

	"icbe/internal/progs"
)

// fast returns a cheap subset of workloads for unit-testing the harness;
// the full set runs in the benchmarks and the CLI.
func fast() []*progs.Workload {
	return []*progs.Workload{progs.Stdio(), progs.M88k()}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Lines <= 0 || r.Procedures <= 0 || r.AllNodes <= 0 || r.CondNodes <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.StaticPct <= 0 || r.StaticPct >= 100 || r.DynamicPct <= 0 || r.DynamicPct >= 100 {
			t.Errorf("percentages out of range: %+v", r)
		}
		if r.CondNodes >= r.AllNodes {
			t.Errorf("conds >= nodes: %+v", r)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "stdio") || !strings.Contains(text, "m88k") {
		t.Errorf("format missing rows:\n%s", text)
	}
}

// TestTable2 pins Table 2's cost metric, the node–query pairs each workload's
// analysis visits, exactly: it is host-independent, so any change to the
// analysis's work shows here as a count, not as a timing.
func TestTable2(t *testing.T) {
	wantPairs := map[string]int{
		"stdio": 289, "compress": 69, "lisp": 313, "m88k": 293,
		"goboard": 183, "scanner": 2262, "oodispatch": 165,
	}
	rows, err := Table2(progs.All(), PaperTerminationLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(wantPairs) {
		t.Fatalf("rows = %d, want the %d paper workloads", len(rows), len(wantPairs))
	}
	for _, r := range rows {
		if r.PairsTotal != wantPairs[r.Name] {
			t.Errorf("%s: %d node-query pairs, want %d", r.Name, r.PairsTotal, wantPairs[r.Name])
		}
		if r.PairsTotal <= 0 || r.PairsPerCond <= 0 {
			t.Errorf("no analysis work recorded: %+v", r)
		}
		if r.AnalysisSec > r.OverallSec {
			t.Errorf("analysis time exceeds overall: %+v", r)
		}
		if r.ProgRepBytes <= 0 || r.AnalysisBytes <= 0 {
			t.Errorf("memory estimates missing: %+v", r)
		}
	}
	if s := FormatTable2(rows); !strings.Contains(s, "pairs") {
		t.Error("format broken")
	}
}

func TestFigure9(t *testing.T) {
	rows, err := Figure9(fast())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Monotonicity: inter finds at least as much as intra; full is a
		// subset of some; analyzable bounds everything.
		if r.InterSomePct < r.IntraSomePct {
			t.Errorf("%s: inter < intra (some)", r.Name)
		}
		if r.InterFullPct < r.IntraFullPct {
			t.Errorf("%s: inter < intra (full)", r.Name)
		}
		if r.IntraFullPct > r.IntraSomePct || r.InterFullPct > r.InterSomePct {
			t.Errorf("%s: full > some", r.Name)
		}
		if r.InterSomePct > r.AnalyzablePct {
			t.Errorf("%s: correlated > analyzable", r.Name)
		}
		// The key claim: interprocedural analysis detects materially more.
		if r.InterSomePct <= r.IntraSomePct {
			t.Errorf("%s: no interprocedural advantage (some: %f vs %f)", r.Name, r.InterSomePct, r.IntraSomePct)
		}
	}
	if s := FormatFigure9(rows); !strings.Contains(s, "full correlation") {
		t.Error("format broken")
	}
}

func TestFigure10(t *testing.T) {
	intra, inter, err := Figure10(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(inter) <= len(intra) {
		t.Errorf("inter should have more correlated conditionals: %d vs %d", len(inter), len(intra))
	}
	posBenefit := 0
	for _, p := range inter {
		if p.Dup < 0 {
			t.Errorf("negative duplication: %+v", p)
		}
		if p.Benefit > 0 {
			posBenefit++
		}
	}
	if posBenefit == 0 {
		t.Error("no conditional with positive dynamic benefit")
	}
	if s := FormatFigure10(intra, inter); !strings.Contains(s, "interprocedural") {
		t.Error("format broken")
	}
}

func TestFigure11(t *testing.T) {
	rows, err := Figure11(fast(), PaperTerminationLimit, []int{5, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Intra) != 3 || len(r.Inter) != 3 {
			t.Fatalf("%s: wrong point counts", r.Name)
		}
		// Larger limits can only help (monotone in N).
		for i := 1; i < len(r.Inter); i++ {
			if r.Inter[i].CondReductionPct+1e-9 < r.Inter[i-1].CondReductionPct {
				t.Errorf("%s: inter reduction not monotone in N: %v", r.Name, r.Inter)
			}
		}
		// At the largest limit inter must beat intra.
		last := len(r.Inter) - 1
		if r.Inter[last].CondReductionPct <= r.Intra[last].CondReductionPct {
			t.Errorf("%s: inter %f <= intra %f at N=200", r.Name,
				r.Inter[last].CondReductionPct, r.Intra[last].CondReductionPct)
		}
		for _, pt := range r.Inter {
			if pt.CondReductionPct < 0 || pt.CondReductionPct > 100 {
				t.Errorf("%s: reduction out of range: %+v", r.Name, pt)
			}
			if pt.CodeGrowthPct < 0 {
				t.Errorf("%s: negative growth: %+v", r.Name, pt)
			}
		}
	}
	if s := FormatFigure11(rows); !strings.Contains(s, "growth%") {
		t.Error("format broken")
	}
}

func TestHeadline(t *testing.T) {
	h, err := ComputeHeadline(fast(), PaperTerminationLimit, []int{5, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if h.FullCorrMaxPct <= 0 {
		t.Error("no full correlation found")
	}
	if h.MatchedGrowthRatio <= 1 {
		t.Errorf("matched-growth ratio %.2f should exceed 1 (ICBE advantage)", h.MatchedGrowthRatio)
	}
	if s := FormatHeadline(h); !strings.Contains(s, "2.5x") {
		t.Error("format broken")
	}
}

func TestInliningComparison(t *testing.T) {
	rows, err := InliningComparison(fast(), PaperTerminationLimit, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.InlinedCalls == 0 {
			t.Errorf("%s: nothing inlined", r.Name)
		}
		if r.InlineReductionPct <= 0 {
			t.Errorf("%s: inline route removed nothing", r.Name)
		}
		if r.ICBEReductionPct <= 0 {
			t.Errorf("%s: ICBE route removed nothing", r.Name)
		}
	}
	if s := FormatInlining(rows); !strings.Contains(s, "ICBE restructuring") {
		t.Error("format broken")
	}
}

func TestHeuristicComparison(t *testing.T) {
	rows, err := HeuristicComparison(fast(), PaperTerminationLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// A higher benefit threshold can only shrink growth (fewer
		// conditionals pass the gate) and reduction.
		if r.Ben25GrowthPct > r.Ben1GrowthPct+1e-9 {
			t.Errorf("%s: growth not monotone in threshold: %+v", r.Name, r)
		}
		if r.Ben1ReductionPct > r.LimitReductionPct+1e-9 {
			t.Errorf("%s: benefit gate cannot beat ungated reduction: %+v", r.Name, r)
		}
		if r.LimitReductionPct <= 0 {
			t.Errorf("%s: no reduction at all", r.Name)
		}
	}
	if s := FormatHeuristic(rows); !strings.Contains(s, "benefit") {
		t.Error("format broken")
	}
}
