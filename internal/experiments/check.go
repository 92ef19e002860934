package experiments

import (
	"fmt"
	"strings"

	"icbe/internal/progs"
	"icbe/internal/restructure"
)

// CheckRow is one workload's static verification summary: the driver run
// with the check layer on (SCCP cross-check + invariant lint gate), plus the
// oracle's recall signal — constant branches ICBE left in the optimized
// program.
type CheckRow struct {
	Name       string
	Analyzable int
	Optimized  int
	// Agreements/Disagreements count cross-checked conditionals the SCCP
	// oracle confirmed/contradicted. Disagreements must be zero: each one
	// is a contained rollback and evidence of an analysis bug. Decided
	// counts every non-vacuous conditional with a full demand-driven
	// answer, and Recall the fraction of those the oracle graded.
	Agreements    int
	Disagreements int
	Decided       int
	Recall        float64
	// Residual counts analyzable branches of the optimized program whose
	// outcome the oracle still decides (smaller is better; 0 means ICBE
	// eliminated every branch the conditional constant propagator can see).
	Residual int
	// FindingsPre/Post count invariant lint findings before and after
	// optimization (both 0 for sound runs).
	FindingsPre, FindingsPost int
	// CheckFailures counts conditionals the gate refused (rolled back).
	CheckFailures int
}

// CheckReport runs the optimization driver with the static check layer on
// every workload.
func CheckReport(ws []*progs.Workload, termLimit int) ([]CheckRow, error) {
	var rows []CheckRow
	for _, w := range ws {
		p, _, err := buildAndProfile(w)
		if err != nil {
			return nil, err
		}
		opts := driverOpts(interOpts(termLimit), 0)
		opts.Check = true
		dr := restructure.Optimize(p, opts)
		rows = append(rows, CheckRow{
			Name:          w.Name,
			Analyzable:    len(analyzableBranches(p)),
			Optimized:     dr.Optimized,
			Agreements:    dr.Stats.SCCPAgreements,
			Disagreements: dr.Stats.SCCPDisagreements,
			Decided:       dr.Stats.SCCPDecided,
			Recall:        dr.Stats.SCCPRecall,
			Residual:      dr.Stats.SCCPResidual,
			FindingsPre:   dr.Stats.CheckFindingsPre,
			FindingsPost:  dr.Stats.CheckFindingsPost,
			CheckFailures: dr.Stats.Failures[restructure.FailCheck.String()],
		})
	}
	return rows, nil
}

// FormatCheckReport renders the static verification table.
func FormatCheckReport(rows []CheckRow) string {
	var sb strings.Builder
	sb.WriteString("Static verification (SCCP cross-check + invariant lints)\n")
	fmt.Fprintf(&sb, "%-10s %10s %9s %6s %9s %7s %6s %8s %13s %8s\n",
		"program", "analyzable", "optimized", "agree", "disagree", "decided", "recall", "residual", "findings", "refused")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %10d %9d %6d %9d %7d %6.2f %8d %6d -> %3d %8d\n",
			r.Name, r.Analyzable, r.Optimized, r.Agreements, r.Disagreements, r.Decided,
			r.Recall, r.Residual, r.FindingsPre, r.FindingsPost, r.CheckFailures)
	}
	sb.WriteString("\ndisagree and findings must be 0; recall is the graded fraction of decided claims; residual counts constant branches ICBE left behind\n")
	return sb.String()
}
