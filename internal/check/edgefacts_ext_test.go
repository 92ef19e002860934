package check_test

import (
	"testing"

	"icbe"
	"icbe/internal/check"
)

// TestEdgeFactsWithinEntryStateOptimized runs the edge-containment check of
// TestEdgeFactsWithinEntryState on the same programs optimized at the full
// tier (Check, Verify, Fold), whose restructured graphs wire branches
// straight into branches and split entries and exits.
func TestEdgeFactsWithinEntryStateOptimized(t *testing.T) {
	opts := icbe.DefaultOptions()
	opts.Check, opts.CheckFatal, opts.Verify, opts.Fold = true, true, true, true
	names, srcs := check.ContainmentCorpus()
	live := 0
	for i, src := range srcs {
		p, err := icbe.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		op, _, err := p.Optimize(opts)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		g := op.Graph()
		n, err := check.EdgeContainment(g, check.RunSCCP(g))
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
		live += n
	}
	t.Logf("%d programs, %d live edges", len(srcs), live)
	if live == 0 {
		t.Fatalf("no live edge checked")
	}
}
