package experiments

import (
	"strings"
	"testing"

	"icbe/internal/progs"
)

// TestCheckReportOracleBites is the golden gate for the check layer: across
// the full workload set the branch-sensitive oracle must actually grade
// claims (nonzero agreements and recall on most workloads), and must never
// contradict the demand-driven analysis or surface lint findings. A
// regression to a vacuous oracle (all-zero agreements) fails here.
func TestCheckReportOracleBites(t *testing.T) {
	rows, err := CheckReport(progs.All(), PaperTerminationLimit)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want the 7 paper workloads", len(rows))
	}
	biting := 0
	for _, r := range rows {
		if r.Disagreements != 0 || r.CheckFailures != 0 {
			t.Errorf("%s: oracle contradiction (disagree=%d refused=%d)", r.Name, r.Disagreements, r.CheckFailures)
		}
		if r.FindingsPre != 0 || r.FindingsPost != 0 {
			t.Errorf("%s: lint findings %d -> %d, want 0 -> 0", r.Name, r.FindingsPre, r.FindingsPost)
		}
		if r.Agreements > 0 && r.Recall > 0 {
			biting++
		}
		if r.Agreements > r.Decided {
			t.Errorf("%s: agreements %d exceed decided %d", r.Name, r.Agreements, r.Decided)
		}
	}
	// compress, m88k, and goboard eliminate exclusively via per-edge splits
	// ({T,F} answers), which never present a single gradeable claim — so the
	// ceiling is 4 of 7, and the floor is the same: the oracle must grade
	// every workload that presents full answers.
	if biting < 4 {
		t.Errorf("oracle bites on %d workloads, want >= 4", biting)
	}
	text := FormatCheckReport(rows)
	if !strings.Contains(text, "recall") || !strings.Contains(text, "stdio") {
		t.Errorf("format missing columns:\n%s", text)
	}
}
