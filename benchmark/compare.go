package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// resultSet holds the result files of one directory, grouped by workload.
type resultSet map[string][]resultFile

func loadResults(dir string) (resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	set := make(resultSet)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	return set, nil
}

// values returns the metric's values across the set's runs of a workload.
// End-to-end metrics come from untraced runs only.
func (s resultSet) values(workload string, m metricSpec) []float64 {
	var out []float64
	for _, r := range s[workload] {
		if v, ok := r.Metrics[m.Name]; ok && !(m.Bound > 0 && r.Trace) {
			out = append(out, v.Value)
		}
	}
	return out
}

// bySeed returns the metric's values keyed by seed.
func (s resultSet) bySeed(workload, metric string) map[uint64][]float64 {
	out := make(map[uint64][]float64)
	for _, r := range s[workload] {
		if v, ok := r.Metrics[metric]; ok {
			out[r.Seed] = append(out[r.Seed], v.Value)
		}
	}
	return out
}

// runCompare prints, for each workload and metric both directories report,
// each set's quartiles, the bound and a verdict. A bounded metric is better
// or worse when the medians differ by more than the bound, unresolved when
// either set's spread (quartile distance over median) exceeds the bound, and
// otherwise the same. An exact metric must read the same in every run of a
// seed on both sides. It returns 1 when any metric is worse or differs.
func runCompare(w io.Writer, dirA, dirB string) int {
	a, err := loadResults(dirA)
	if err != nil {
		fatal(err)
	}
	b, err := loadResults(dirB)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-30s %-32s %-32s %6s  %s\n", "workload", "metric", "A p25/p50/p75", "B p25/p50/p75", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range append(slices.Clone(endToEnd), perLayer...) {
			va, vb := a.values(wl.Name, m), b.values(wl.Name, m)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, bound := "-", "-"
			switch {
			case m.Exact:
				verdict = exactVerdict(a.bySeed(wl.Name, m.Name), b.bySeed(wl.Name, m.Name))
			case m.Bound > 0:
				verdict, bound = boundVerdict(va, vb, m), fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			if verdict == "worse" || verdict == "DIFFERENT" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-30s %-32s %-32s %6s  %s\n", wl.Name, m.Name+" ("+m.Unit+")",
				quartileText(va), quartileText(vb), bound, verdict)
		}
	}
	return code
}

func exactVerdict(a, b map[uint64][]float64) string {
	verdict := "-" // no seed run on both sides
	for seed, xs := range a {
		ys, ok := b[seed]
		if !ok {
			continue
		}
		verdict = "same"
		for _, v := range slices.Concat(xs, ys) {
			if v != xs[0] {
				return "DIFFERENT"
			}
		}
	}
	return verdict
}

func boundVerdict(a, b []float64, m metricSpec) string {
	qa, qb := quantiles(a, 4), quantiles(b, 4)
	if spread(qa) > m.Bound || spread(qb) > m.Bound {
		return "unresolved"
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > m.Bound:
		return "better"
	}
	return "same"
}

func spread(q []float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func quartileText(xs []float64) string {
	q := quantiles(xs, 4)
	return fmt.Sprintf("%.4g/%.4g/%.4g (n=%d)", q[0], q[1], q[2], len(xs))
}
