package restructure

import (
	"slices"
	"time"

	"icbe/internal/check"
	"icbe/internal/interp"
	"icbe/internal/ir"
)

// working is the driver's working program together with every fact a gate
// derives from it. A fact is computed the first time a gate needs it. An
// attempt hands back the facts its gates derived for its fork; adopt
// installs fork and facts together, and a rollback or decline drops them.
// Every invariant report is computed in ws, one check workspace per driver
// run, made on first use, and released when it is dropped: on adopt for
// the superseded report, on a rollback for the fork's, and at the end of
// the run.
type working struct {
	prog *ir.Program
	facts
	ws       *check.Workspace
	inputs   [][]int64 // verifyInputs, built once per driver run
	maxSteps int64     // bound on each shadow run of prog: verifyMaxSteps
	// check and verify say whether correlation applies run the invariant
	// and shadow gates; folds always run both.
	check, verify bool
	stats         *DriverStats
}

// facts are what the gates know about one program; nil is not known yet.
type facts struct {
	rep *check.Report
	// runs holds, per verify input, the run interp.Run(prog, maxSteps)
	// gives; a nil entry is not known yet.
	runs []*shadowRun
}

// release hands the report's memory back to the workspace. The facts must
// not be read afterwards: a released report panics on every read.
func (f *facts) release() {
	if f.rep != nil {
		f.rep.Release()
	}
}

type shadowRun struct {
	res *interp.Result
	err error
}

// report returns the working program's invariant report. With Check on,
// analyzing it is the check layer's baseline; otherwise only the fold pass
// asks, and its time lands in FoldWall.
func (w *working) report() *check.Report {
	if w.rep == nil {
		w.rep = w.analyze(w.prog, w.check)
	}
	return w.rep
}

// analyze runs the invariant passes on p, charging CheckRuns and CheckWall
// when the analysis is made for the check layer.
func (w *working) analyze(p *ir.Program, charge bool) *check.Report {
	t0 := time.Now()
	if w.ws == nil {
		w.ws = new(check.Workspace)
	}
	rep := w.ws.AnalyzeInvariants(p)
	if charge {
		w.stats.CheckRuns++
		w.stats.CheckWall += time.Since(t0)
	}
	return rep
}

// shadowRuns returns the working program's run on every verify input,
// running each one not known yet. They are stored only once every input
// has finished, so a panic partway leaves the working state as it was.
func (w *working) shadowRuns() []*shadowRun {
	if w.runs != nil && !slices.Contains(w.runs, nil) {
		return w.runs
	}
	runs := make([]*shadowRun, len(w.inputs))
	copy(runs, w.runs)
	for i, in := range w.inputs {
		if runs[i] == nil {
			res, err := interp.Run(w.prog, interp.Options{Input: in, MaxSteps: w.maxSteps})
			runs[i] = &shadowRun{res, err}
		}
	}
	w.runs = runs
	return runs
}

// gate runs the gate sequence both attempt kinds share on a fork:
// ir.Validate, then invariant regression against the working report, then
// shadow execution against the working runs. A correlation apply runs the
// last two as Check and Verify say, charging its analysis to the check
// layer. A fold runs both, since folds trust a different oracle than the
// correlation analysis and buy their own evidence. On success gate returns
// the facts it derived for the fork; on failure it releases them.
func (w *working) gate(fork *ir.Program, fold bool) (*facts, *BranchFailure) {
	if err := ir.Validate(fork); err != nil {
		return nil, &BranchFailure{Kind: FailValidate,
			Msg: "restructured program failed structural validation", Err: err}
	}
	f := &facts{}
	if w.check || fold {
		f.rep = w.analyze(fork, !fold)
		base := w.report()
		// Registry order, not map order, so the reported pass is
		// deterministic when several regress at once.
		for _, p := range check.Passes() {
			pass := p.Name()
			if n, ok := f.rep.PerPass[pass]; ok && n > base.Count(pass) {
				first, _ := f.rep.FirstFinding(pass)
				f.release()
				return nil, &BranchFailure{Kind: FailCheck,
					Msg: "restructured program raised " + pass + " finding: " + first.Msg}
			}
		}
	}
	if w.verify || fold {
		var fail *BranchFailure
		if f.runs, fail = w.verifyShadow(fork); fail != nil {
			f.release()
			return nil, fail
		}
	}
	return f, nil
}

// adopt is the commit point. The fork passed Validate after its final
// prune, so it is settled and the next attempt's passes stay region-local.
// The superseded program's report is released.
func (w *working) adopt(fork *ir.Program, f *facts) {
	fork.Settle()
	w.facts.release()
	w.prog, w.facts = fork, *f
}
