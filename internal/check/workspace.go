package check

import "icbe/internal/ir"

// Workspace recycles the memory of the check runs one caller makes in
// sequence: each SCCP result's entry states and node tables, the worklist
// run's tables, and the lint passes' scratch. A result's memory returns to
// the workspace when its report is released (Report.Release); until then
// no later run touches it. The zero Workspace is ready to use. A workspace
// is not safe for concurrent use, and the results it computes must not
// outlive their release.
//
// The package-level RunSCCP, AnalyzeInvariants and AnalyzeWith run the same
// code on a fresh workspace each call.
type Workspace struct {
	// free holds released results' memory, ready for the next run.
	free []*sccpMem
	run  sccpRun
	pass passScratch
}

// sccpMem is the memory one SCCP result's facts live in: the entry states
// and call-site-exit halves, carved from one slab, and the node tables the
// reads index.
type sccpMem struct {
	cells    slab
	in       [][]cell
	exec     []bool
	ceRet    []Value
	mustFail []ir.NodeID
}

// take returns released memory for a new result, or fresh memory when
// every earlier result is still held.
func (ws *Workspace) take() *sccpMem {
	n := len(ws.free)
	if n == 0 {
		return new(sccpMem)
	}
	m := ws.free[n-1]
	ws.free[n-1] = nil
	ws.free = ws.free[:n-1]
	return m
}

// AnalyzeInvariants is the package-level AnalyzeInvariants on memory the
// workspace recycles.
func (ws *Workspace) AnalyzeInvariants(p *ir.Program) *Report {
	return runPasses(p, ws.runSCCP(p), builtinPasses, &ws.pass)
}

// slab hands out cell slices carved in order from one array. A request past
// its end is served from the heap, so a short slab costs recycling, never
// correctness.
type slab struct {
	buf []cell
	off int
}

// reset readies the slab for n cells, reusing its array when it is large
// enough. The cells are not cleared: clone overwrites what it hands out.
func (s *slab) reset(n int) {
	s.buf, s.off = grow(s.buf, n), 0
}

// clone returns a copy of st carved from the slab. Its capacity ends at its
// length, so no append can reach the next slice.
func (s *slab) clone(st []cell) []cell {
	end := s.off + len(st)
	if end > len(s.buf) {
		return append([]cell(nil), st...)
	}
	out := s.buf[s.off:end:end]
	copy(out, st)
	s.off = end
	return out
}

// resize returns a slice of length n with every element zero, reusing s's
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// grow returns a slice of length n, reusing s's array when it is large
// enough. A new array has room for half as much again: the driver's
// programs grow apply by apply, and a workspace should not reallocate for
// each one. The elements are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}
