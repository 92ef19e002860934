package check

import (
	"fmt"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// Compiled programs — the paper workloads and the equivalence-suite random
// seeds — must carry zero invariant findings: lowering is structurally sound,
// reachable, and definite-assignment clean by construction.
func TestWorkloadsHaveNoInvariantFindings(t *testing.T) {
	for _, w := range progs.All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := ir.Build(w.Source)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rep := AnalyzeInvariants(p)
			if len(rep.Findings) != 0 {
				t.Errorf("invariant findings = %d", len(rep.Findings))
				for _, f := range rep.Findings {
					t.Logf("  %s", f)
				}
			}
		})
	}
}

var checkSeeds = []uint64{0, 1, 2, 3, 7, 11, 42, 99, 1234, 0xdeadbeef}

func TestRandomProgramsHaveNoInvariantFindings(t *testing.T) {
	cfg := randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2}
	for _, seed := range checkSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := randprog.Generate(seed, cfg)
			p, err := ir.Build(src)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rep := AnalyzeInvariants(p)
			if len(rep.Findings) != 0 {
				t.Errorf("invariant findings = %d on seed %d", len(rep.Findings), seed)
				for _, f := range rep.Findings {
					t.Logf("  %s", f)
				}
			}
		})
	}
}
