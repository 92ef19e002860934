// Package check is the static verification layer of the ICBE pipeline: a
// whole-program forward oracle in the Wegman–Zadeck sparse conditional
// constant propagation (SCCP) style, plus a fixed set of lint passes over
// the ICFG.
//
// The package is the static counterpart of the dynamic shadow-execution
// oracle in internal/restructure: the demand-driven backward correlation
// analysis proves branch outcomes along incoming paths, SCCP proves
// variable constancy and node reachability forward, and the two must never
// contradict each other. A contradiction (CrossCheck), or a lint invariant
// that held before a restructuring and fails after it, indicates a compiler
// bug; the optimization driver uses both as apply gates.
//
// Every pass is an invariant pass: it must report zero findings on every
// well-formed program — compiled seed programs and correctly restructured
// ones alike — so any finding is a defect.
package check

import (
	"fmt"
	"sort"

	"icbe/internal/ir"
)

// Kind classifies a lint pass. Invariant is the only kind.
type Kind int

// Invariant passes must be finding-free on well-formed programs; the
// driver's check gate treats a new finding as a contained failure.
const Invariant Kind = 0

// Finding is one lint result.
type Finding struct {
	// Pass is the reporting pass's name.
	Pass string
	// Node anchors the finding in the ICFG (NoNode for whole-program
	// findings such as structural violations).
	Node ir.NodeID
	// Line is the source line of Node, when known.
	Line int
	// Msg describes the finding (one line).
	Msg string
}

func (f Finding) String() string {
	if f.Node == ir.NoNode {
		return fmt.Sprintf("%s: %s", f.Pass, f.Msg)
	}
	return fmt.Sprintf("%s: node %d (line %d): %s", f.Pass, int(f.Node), f.Line, f.Msg)
}

// Context carries the shared analysis state a pass runs against. The SCCP
// result is computed once per suite run and shared by every pass.
type Context struct {
	Prog *ir.Program
	SCCP *SCCP
	// scratch is the passes' working memory; byProc is Prog's live nodes
	// by procedure, built in it on first use.
	scratch *passScratch
	byProc  [][]*ir.Node
}

// nodesByProc returns the program's live nodes bucketed by procedure, each
// bucket in node order. The buckets are scratch: valid for this context's
// passes only.
func (cx *Context) nodesByProc() [][]*ir.Node {
	if cx.byProc == nil {
		cx.byProc = cx.scr().bucket(cx.Prog)
	}
	return cx.byProc
}

func (cx *Context) scr() *passScratch {
	if cx.scratch == nil {
		cx.scratch = new(passScratch)
	}
	return cx.scratch
}

// Pass is one built-in lint pass. Run must be read-only on the program,
// deterministic, and must not panic on malformed graphs (the fuzz harness
// feeds it mutated ones).
type Pass interface {
	Name() string
	Kind() Kind
	Run(cx *Context) []Finding
}

// builtinPasses holds the built-in passes; the order is fixed so reports and
// gate comparisons are deterministic.
var builtinPasses = []Pass{structurePass{}, unreachablePass{}, useBeforeDefPass{}, sccpConsistencyPass{}}

// Passes returns the built-in passes in their fixed order.
func Passes() []Pass { return append([]Pass(nil), builtinPasses...) }

// Report is the outcome of running a pass suite over one program.
type Report struct {
	// Findings holds every finding, grouped by pass in pass order and
	// sorted by node within a pass.
	Findings []Finding
	// PerPass maps each executed pass to its finding count (zero entries
	// included, so gate comparisons see every pass).
	PerPass map[string]int
	// SCCP is the shared oracle result the passes ran against.
	SCCP     *SCCP
	released bool
}

// Count returns the finding count of the named pass. It panics on a
// released report.
func (r *Report) Count(pass string) int {
	r.live()
	return r.PerPass[pass]
}

// Release hands the report's oracle memory back to the workspace that
// computed it, for its next run to reuse. Every later read of the report's
// SCCP, and every Count and FirstFinding, panics; Findings and PerPass are
// the report's own and stay as they were. Releasing twice is a no-op. A
// report made by AnalyzeWith releases the SCCP it was given.
func (r *Report) Release() {
	r.released = true
	r.SCCP.release()
}

func (r *Report) live() {
	if r.released {
		panic("check: read of a released report")
	}
}

// AnalyzeInvariants runs every built-in pass — the gate set the
// optimization driver compares before and after each restructuring.
func AnalyzeInvariants(p *ir.Program) *Report { return new(Workspace).AnalyzeInvariants(p) }

// AnalyzeWith runs the given passes against a caller-supplied SCCP result
// (computed with RunSCCP), avoiding a recomputation when the caller already
// holds one for this exact program.
func AnalyzeWith(p *ir.Program, s *SCCP, passes []Pass) *Report {
	ws := new(Workspace)
	if s == nil {
		s = ws.runSCCP(p)
	}
	return runPasses(p, s, passes, &ws.pass)
}

func runPasses(p *ir.Program, s *SCCP, passes []Pass, scratch *passScratch) *Report {
	cx := &Context{Prog: p, SCCP: s, scratch: scratch}
	rep := &Report{PerPass: make(map[string]int, len(passes)), SCCP: s}
	for _, ps := range passes {
		fs := ps.Run(cx)
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].Node < fs[j].Node })
		rep.PerPass[ps.Name()] = len(fs)
		rep.Findings = append(rep.Findings, fs...)
	}
	return rep
}
