package icbe

import (
	"reflect"
	"testing"

	"icbe/internal/progs"
)

// fullTierCounters are the deterministic gate counters of one run at the
// service's full tier.
type fullTierCounters struct {
	VerifyRuns, CheckRuns                               int
	SCCPAgreements, SCCPDisagreements, SCCPVacuous      int
	SCCPDecided                                         int
	SCCPRecall                                          float64
	SCCPResidual, SCCPResidualBefore, SCCPResidualAfter int
	FoldAttempted, FoldApplied, FoldDuplicated          int
	FoldReduction                                       float64
	Failures                                            map[string]int
}

// TestFullTierCounters pins the gate counters of the seven paper programs
// at the service's full tier (Check, CheckFatal, Verify, Fold). The goldens
// compare programs and reports only, so a gate that silently stopped
// running — a comparison skipped, an analysis never made — would pass them;
// it cannot pass this table. CheckRuns counts the baseline and one analysis
// per apply fork; the final program's report is the one its last adoption
// carried, so no analysis is made at the end of the run.
func TestFullTierCounters(t *testing.T) {
	want := []struct {
		name    string
		workers int
		c       fullTierCounters
	}{
		// stdio and goboard adopt folds: their CheckRuns are one below what a
		// final re-analysis would count.
		{"stdio", 1, fullTierCounters{VerifyRuns: 98, CheckRuns: 14, SCCPAgreements: 2, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 2, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 1, SCCPResidualAfter: 0, FoldAttempted: 1, FoldApplied: 1, FoldDuplicated: 0, FoldReduction: 1, Failures: nil}},
		{"stdio", 4, fullTierCounters{VerifyRuns: 98, CheckRuns: 14, SCCPAgreements: 2, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 2, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 1, SCCPResidualAfter: 0, FoldAttempted: 1, FoldApplied: 1, FoldDuplicated: 0, FoldReduction: 1, Failures: nil}},
		{"compress", 1, fullTierCounters{VerifyRuns: 42, CheckRuns: 7, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"compress", 4, fullTierCounters{VerifyRuns: 42, CheckRuns: 7, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"lisp", 1, fullTierCounters{VerifyRuns: 119, CheckRuns: 18, SCCPAgreements: 1, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 1, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"lisp", 4, fullTierCounters{VerifyRuns: 119, CheckRuns: 18, SCCPAgreements: 1, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 1, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"m88k", 1, fullTierCounters{VerifyRuns: 49, CheckRuns: 8, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"m88k", 4, fullTierCounters{VerifyRuns: 49, CheckRuns: 8, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"goboard", 1, fullTierCounters{VerifyRuns: 182, CheckRuns: 10, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 3, SCCPResidualAfter: 0, FoldAttempted: 17, FoldApplied: 17, FoldDuplicated: 20, FoldReduction: 1, Failures: nil}},
		{"goboard", 4, fullTierCounters{VerifyRuns: 182, CheckRuns: 10, SCCPAgreements: 0, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 0, SCCPRecall: 0, SCCPResidual: 0, SCCPResidualBefore: 3, SCCPResidualAfter: 0, FoldAttempted: 17, FoldApplied: 17, FoldDuplicated: 20, FoldReduction: 1, Failures: nil}},
		{"scanner", 1, fullTierCounters{VerifyRuns: 126, CheckRuns: 19, SCCPAgreements: 6, SCCPDisagreements: 0, SCCPVacuous: 1, SCCPDecided: 6, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"scanner", 4, fullTierCounters{VerifyRuns: 126, CheckRuns: 19, SCCPAgreements: 6, SCCPDisagreements: 0, SCCPVacuous: 1, SCCPDecided: 6, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"oodispatch", 1, fullTierCounters{VerifyRuns: 42, CheckRuns: 7, SCCPAgreements: 3, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 3, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
		{"oodispatch", 4, fullTierCounters{VerifyRuns: 42, CheckRuns: 7, SCCPAgreements: 3, SCCPDisagreements: 0, SCCPVacuous: 0, SCCPDecided: 3, SCCPRecall: 1, SCCPResidual: 0, SCCPResidualBefore: 0, SCCPResidualAfter: 0, FoldAttempted: 0, FoldApplied: 0, FoldDuplicated: 0, FoldReduction: 0, Failures: nil}},
	}
	srcs := make(map[string]string)
	for _, w := range progs.All() {
		srcs[w.Name] = w.Source
	}
	for _, tc := range want {
		p, err := Compile(srcs[tc.name])
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		opts := DefaultOptions()
		opts.Check, opts.CheckFatal, opts.Verify, opts.Fold = true, true, true, true
		opts.Workers = tc.workers
		_, rep, err := p.Optimize(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := rep.Stats
		got := fullTierCounters{s.VerifyRuns, s.CheckRuns, s.SCCPAgreements, s.SCCPDisagreements,
			s.SCCPVacuous, s.SCCPDecided, s.SCCPRecall, s.SCCPResidual, s.SCCPResidualBefore,
			s.SCCPResidualAfter, s.FoldAttempted, s.FoldApplied, s.FoldDuplicated, s.FoldReduction, s.Failures}
		if !reflect.DeepEqual(got, tc.c) {
			t.Errorf("%s at %d workers:\n got %+v\nwant %+v", tc.name, tc.workers, got, tc.c)
		}
	}
}
