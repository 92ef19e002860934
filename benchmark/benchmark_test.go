package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the probe process, which runs are
// started with (see startProber).
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe" {
		probeMain()
		return
	}
	os.Exit(m.Run())
}

// declared is BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationsMatchCode checks BENCHMARK.json and the code name the same
// workloads and metrics, with the same units, directions and bounds.
func TestDeclarationsMatchCode(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for i, w := range d.Workloads {
		names = append(names, w.Name)
		if i >= len(workloads) || workloads[i] != (workloadSpec{w.Name, w.Why}) {
			t.Errorf("BENCHMARK.json workload %d = %+v, code has %+v", i, w, workloads)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code has %d", names, len(workloads))
	}
	perLayerCode := slices.Clone(perLayer)
	for i := range perLayerCode {
		// The file records neither exactness nor a per-layer bound.
		perLayerCode[i].Exact, perLayerCode[i].Bound = false, 0
	}
	if !slices.Equal(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\nfile %+v\ncode %+v", d.EndToEnd, endToEnd)
	}
	if !slices.Equal(d.PerLayer, perLayerCode) {
		t.Errorf("per_layer:\nfile %+v\ncode %+v", d.PerLayer, perLayerCode)
	}
}

// TestWorkloadsSmoke runs every workload at test size (one part, in this
// process), untraced and traced, and checks that no op failed and that the
// summary line carries exactly the metrics BENCHMARK.json declares, each with
// its unit.
func TestWorkloadsSmoke(t *testing.T) {
	d := loadDeclared(t)
	out := t.TempDir()
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.01, trace: trace, out: out, small: true}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			p, err := runPart(cfg, 0)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			run := aggregate([]*part{p})
			var buf bytes.Buffer
			if err := report(&buf, cfg, run, host{}); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s: last line: %v", w.Name, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.Name, trace, sum.Attempted, sum.Failed, run.Failures)
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
	if _, err := os.Stat(out + "/trace-scale-cold.json"); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}

// TestQuantilesMatchPython pins quantiles to Python's
// statistics.quantiles(xs, n=n), which the bounds are defined against.
func TestQuantilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{4, 1}, 4, []float64{0.25, 2.5, 4.75}},
		{[]float64{5, 1, 4, 2, 3}, 2, []float64{3}},
	} {
		if got := quantiles(c.xs, c.n); !slices.Equal(got, c.want) {
			t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
		}
	}
}
