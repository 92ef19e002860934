package restructure

import (
	"bytes"
	"reflect"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// stripMemo zeroes what a driver result may legitimately vary in between a
// seeded and an unseeded run: the program pointer and the telemetry fields
// (wall clocks, worker count, and the memo and seed counters that measure
// warmth).
func stripMemo(r *DriverResult) *DriverResult {
	r.Program = nil
	r.Stats.Scrub()
	return r
}

// TestSeedRecordsByteIdentical: seeding a run with the pristine records a
// prior run on the same source exported (DriverOptions.SeedRecords, the
// same as seeding the memo through Inject) injects records but changes
// neither the optimized program nor the report beyond the memo counters,
// and a record keyed on an out-of-range exit node is dropped, not injected.
func TestSeedRecordsByteIdentical(t *testing.T) {
	corpus := make(map[string]string)
	for _, w := range progs.All() {
		corpus[w.Name] = w.Source
	}
	corpus["scale-7"] = randprog.Scale(7, randprog.ScaleConfig{Leaves: 12, LeafStmts: 30, Hubs: 5})
	corpus["recursion-11"] = randprog.Recursion(11, randprog.RecConfig{})

	build := func(name, src string) *ir.Program {
		t.Helper()
		p, err := ir.Build(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	for name, src := range corpus {
		base := DriverOptions{Analysis: analysis.DefaultOptions(), MaxDuplication: 100}

		prior := base
		prior.Memo = analysis.NewSummaryMemo()
		Optimize(build(name, src), prior)
		recs := prior.Memo.ExportPristine()
		if len(recs) == 0 {
			t.Fatalf("%s: the prior run exported no records", name)
		}

		cold := Optimize(build(name, src), base)
		seededOpts := base
		seededOpts.SeedRecords = recs
		p := build(name, src)
		seeded := Optimize(p, seededOpts)
		injected := seeded.Stats.SeedsInjected
		if injected == 0 {
			t.Errorf("%s: no seeds injected from %d exported records", name, len(recs))
		}
		if !bytes.Equal(ir.EncodeProgram(cold.Program), ir.EncodeProgram(seeded.Program)) {
			t.Errorf("%s: seeded run optimized a different program", name)
		}
		if c, s := stripMemo(cold), stripMemo(seeded); !reflect.DeepEqual(c, s) {
			t.Errorf("%s: seeded report differs:\n cold   %+v\n seeded %+v", name, c, s)
		}

		bad := recs[0]
		bad.Key.Exit = ir.NodeID(len(p.Nodes) + 7)
		for _, tc := range []struct {
			seeds []analysis.PortableRecord
			want  int
		}{
			{[]analysis.PortableRecord{bad}, 0},
			{append([]analysis.PortableRecord{bad}, recs...), injected},
		} {
			o := base
			o.SeedRecords = tc.seeds
			if got := Optimize(build(name, src), o).Stats.SeedsInjected; got != tc.want {
				t.Errorf("%s: %d seeds with an out-of-range exit: SeedsInjected = %d, want %d",
					name, len(tc.seeds), got, tc.want)
			}
		}
	}
}
