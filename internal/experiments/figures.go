package experiments

import (
	"fmt"
	"strings"

	"icbe/internal/analysis"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/restructure"
)

// Fig9Row holds the four graphs of Figure 9 for one program: the share of
// conditionals that are analyzable, have some correlated path, and have
// full correlation — counted statically and weighted by execution counts —
// for the intraprocedural baseline and interprocedural ICBE analysis.
type Fig9Row struct {
	Name string

	// Of all conditionals, statically counted:
	AnalyzablePct float64
	IntraSomePct  float64
	InterSomePct  float64
	IntraFullPct  float64
	InterFullPct  float64

	// The same, weighted by ref-input execution counts:
	AnalyzableDynPct float64
	IntraSomeDynPct  float64
	InterSomeDynPct  float64
	IntraFullDynPct  float64
	InterFullDynPct  float64
}

// Figure9 computes statically detectable correlation with an unlimited
// termination budget (the paper notes Figures 9 and 10 used an infinite
// limit).
func Figure9(ws []*progs.Workload) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, w := range ws {
		p, prof, err := buildAndProfile(w)
		if err != nil {
			return nil, err
		}
		all := allBranches(p)
		var totalStatic, totalDyn float64
		for _, b := range all {
			totalStatic++
			totalDyn += float64(prof.Of(b.ID))
		}
		row := Fig9Row{Name: w.Name}
		anInter := analysis.New(p, interOpts(0))
		anIntra := analysis.New(p, intraOpts(0))
		for _, b := range analyzableBranches(p) {
			weight := float64(prof.Of(b.ID))
			row.AnalyzablePct += 1
			row.AnalyzableDynPct += weight
			resInter := anInter.AnalyzeBranch(b.ID)
			resIntra := anIntra.AnalyzeBranch(b.ID)
			if resIntra.HasCorrelation() {
				row.IntraSomePct++
				row.IntraSomeDynPct += weight
			}
			if resInter.HasCorrelation() {
				row.InterSomePct++
				row.InterSomeDynPct += weight
			}
			if resIntra.FullCorrelation() {
				row.IntraFullPct++
				row.IntraFullDynPct += weight
			}
			if resInter.FullCorrelation() {
				row.InterFullPct++
				row.InterFullDynPct += weight
			}
			resInter.Release()
			resIntra.Release()
		}
		row.AnalyzablePct = pct(row.AnalyzablePct, totalStatic)
		row.IntraSomePct = pct(row.IntraSomePct, totalStatic)
		row.InterSomePct = pct(row.InterSomePct, totalStatic)
		row.IntraFullPct = pct(row.IntraFullPct, totalStatic)
		row.InterFullPct = pct(row.InterFullPct, totalStatic)
		row.AnalyzableDynPct = pct(row.AnalyzableDynPct, totalDyn)
		row.IntraSomeDynPct = pct(row.IntraSomeDynPct, totalDyn)
		row.InterSomeDynPct = pct(row.InterSomeDynPct, totalDyn)
		row.IntraFullDynPct = pct(row.IntraFullDynPct, totalDyn)
		row.InterFullDynPct = pct(row.InterFullDynPct, totalDyn)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure9 renders the four Figure 9 graphs as two tables.
func FormatFigure9(rows []Fig9Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: Conditionals with correlation (% of all conditionals)\n")
	fmt.Fprintf(&sb, "%-10s | %28s | %28s\n", "", "static count", "dynamic (exec-weighted)")
	fmt.Fprintf(&sb, "%-10s | %8s %9s %9s | %8s %9s %9s\n",
		"program", "analyz.", "intra", "inter", "analyz.", "intra", "inter")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s | %8.1f %9.1f %9.1f | %8.1f %9.1f %9.1f\n",
			r.Name, r.AnalyzablePct, r.IntraSomePct, r.InterSomePct,
			r.AnalyzableDynPct, r.IntraSomeDynPct, r.InterSomeDynPct)
	}
	sb.WriteString("\nFigure 9 (cont.): Conditionals with full correlation (% of all conditionals)\n")
	fmt.Fprintf(&sb, "%-10s | %19s | %19s\n", "", "static count", "dynamic")
	fmt.Fprintf(&sb, "%-10s | %9s %9s | %9s %9s\n", "program", "intra", "inter", "intra", "inter")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s | %9.1f %9.1f | %9.1f %9.1f\n",
			r.Name, r.IntraFullPct, r.InterFullPct, r.IntraFullDynPct, r.InterFullDynPct)
	}
	return sb.String()
}

// Fig10Point is one conditional in the Figure 10 scatter plot: the code
// duplication its elimination requires (x) against the dynamic instances
// whose outcome becomes known (y).
type Fig10Point struct {
	Workload string
	Line     int
	// Dup is the analysis' upper bound on new operation nodes.
	Dup int
	// Benefit estimates the dynamic instances decided, from the execution
	// counts of the resolution sites.
	Benefit int64
}

// Figure10 computes the cost/benefit scatter for both analyses.
func Figure10(ws []*progs.Workload) (intra, inter []Fig10Point, err error) {
	for _, w := range ws {
		p, prof, err := buildAndProfile(w)
		if err != nil {
			return nil, nil, err
		}
		anInter := analysis.New(p, interOpts(0))
		anIntra := analysis.New(p, intraOpts(0))
		for _, b := range analyzableBranches(p) {
			if res := anIntra.AnalyzeBranch(b.ID); res != nil {
				if res.HasCorrelation() {
					intra = append(intra, Fig10Point{
						Workload: w.Name, Line: int(b.Line),
						Dup:     res.DuplicationEstimate(p),
						Benefit: res.EstimatedBenefit(prof),
					})
				}
				res.Release()
			}
			if res := anInter.AnalyzeBranch(b.ID); res != nil {
				if res.HasCorrelation() {
					inter = append(inter, Fig10Point{
						Workload: w.Name, Line: int(b.Line),
						Dup:     res.DuplicationEstimate(p),
						Benefit: res.EstimatedBenefit(prof),
					})
				}
				res.Release()
			}
		}
	}
	return intra, inter, nil
}

// FormatFigure10 renders the scatter data as two point lists.
func FormatFigure10(intra, inter []Fig10Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: branch-removal contribution vs code duplication (one point per correlated conditional)\n")
	render := func(label string, pts []Fig10Point) {
		fmt.Fprintf(&sb, "%s (%d correlated conditionals)\n", label, len(pts))
		fmt.Fprintf(&sb, "  %-10s %6s %12s %14s\n", "program", "line", "dup[nodes]", "benefit[execs]")
		for _, p := range pts {
			fmt.Fprintf(&sb, "  %-10s %6d %12d %14d\n", p.Workload, p.Line, p.Dup, p.Benefit)
		}
	}
	render("intraprocedural", intra)
	render("interprocedural", inter)
	return sb.String()
}

// Fig11Point is one duplication-limit setting of Figure 11.
type Fig11Point struct {
	Limit int
	// CondReductionPct is the percentage of ref-input executed conditional
	// nodes removed; CodeGrowthPct is the static operation-node growth.
	CondReductionPct float64
	CodeGrowthPct    float64
	Optimized        int
}

// Fig11Row is one benchmark's pair of curves.
type Fig11Row struct {
	Name  string
	Intra []Fig11Point
	Inter []Fig11Point
}

// Figure11 sweeps the per-conditional duplication limit with the paper's
// termination budget, optimizing each workload with both analyses and
// measuring executed-conditional reduction against code growth on the ref
// input.
func Figure11(ws []*progs.Workload, termLimit int, dupLimits []int) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, w := range ws {
		p, err := ir.Build(w.Source)
		if err != nil {
			return nil, err
		}
		base, err := interp.Run(p, interp.Options{Input: w.Ref})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		opsBefore := ir.Collect(p).Operations
		row := Fig11Row{Name: w.Name}
		for _, mode := range []struct {
			opts analysis.Options
			dst  *[]Fig11Point
		}{
			{intraOpts(termLimit), &row.Intra},
			{interOpts(termLimit), &row.Inter},
		} {
			for _, limit := range dupLimits {
				dr := restructure.Optimize(p, driverOpts(mode.opts, limit))
				run, err := interp.Run(dr.Program, interp.Options{Input: w.Ref})
				if err != nil {
					return nil, fmt.Errorf("%s (limit %d): %w", w.Name, limit, err)
				}
				opsAfter := ir.Collect(dr.Program).Operations
				*mode.dst = append(*mode.dst, Fig11Point{
					Limit:            limit,
					CondReductionPct: pct(float64(base.CondExecs-run.CondExecs), float64(base.CondExecs)),
					CodeGrowthPct:    pct(float64(opsAfter-opsBefore), float64(opsBefore)),
					Optimized:        dr.Optimized,
				})
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure11 renders the per-benchmark reduction-vs-growth curves.
func FormatFigure11(rows []Fig11Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 11: reduction in executed conditional nodes vs program code growth\n")
	sb.WriteString("(one point per per-conditional duplication limit N)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s\n", r.Name)
		fmt.Fprintf(&sb, "  %6s | %22s | %22s\n", "", "intraprocedural", "interprocedural (ICBE)")
		fmt.Fprintf(&sb, "  %6s | %8s %9s %4s | %8s %9s %4s\n",
			"N", "growth%", "reduct%", "opt", "growth%", "reduct%", "opt")
		for i := range r.Intra {
			ia, ie := r.Intra[i], r.Inter[i]
			fmt.Fprintf(&sb, "  %6d | %8.1f %9.1f %4d | %8.1f %9.1f %4d\n",
				ia.Limit, ia.CodeGrowthPct, ia.CondReductionPct, ia.Optimized,
				ie.CodeGrowthPct, ie.CondReductionPct, ie.Optimized)
		}
	}
	return sb.String()
}
