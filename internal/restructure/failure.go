package restructure

import (
	"fmt"
	"runtime/debug"

	"icbe/internal/ir"
)

// FailureKind categorizes a contained per-conditional failure. The driver
// converts every failure into a rolled-back, reported refusal: the working
// program is never replaced by a program that panicked during
// restructuring, failed structural validation, or violated the paper's
// semantic guarantee under shadow execution.
type FailureKind int

// Failure categories, in gating order: a panic aborts the attempt before
// validation, validation runs before the differential oracle, and the
// oracle distinguishes wrong output from the op-growth safety violation.
// Timeouts come from the driver's deadlines, not from the apply path.
const (
	// FailPanic: the analysis or the restructuring attempt panicked; the
	// recovered value and stack are preserved on the BranchFailure.
	FailPanic FailureKind = iota + 1
	// FailValidate: the restructured program failed ir.Validate.
	FailValidate
	// FailDiffMismatch: shadow execution produced different output (or a
	// different fault) than the pre-apply program on some input.
	FailDiffMismatch
	// FailOpGrowth: shadow execution executed more operations than the
	// pre-apply program on some input, violating the paper's §3.2
	// guarantee that restructuring never lengthens any path.
	FailOpGrowth
	// FailTimeout: a per-branch analysis deadline or the overall driver
	// deadline expired before the conditional could be settled.
	FailTimeout
	// FailCheck: the static check layer (DriverOptions.Check) vetoed the
	// conditional — either its demand-driven answer contradicted the SCCP
	// oracle, or applying its restructuring raised an invariant lint
	// finding (unreachable node, use-before-def, must-fail assertion) the
	// working program did not have.
	FailCheck
	// FailFold: the residual fold pass (DriverOptions.Fold) vetoed a fold
	// attempt — the folded fork failed validation, regressed an invariant
	// pass, diverged under shadow execution, or presented a residual
	// constant branch the pre-fold program did not have.
	FailFold
)

func (k FailureKind) String() string {
	switch k {
	case FailPanic:
		return "panic"
	case FailValidate:
		return "validate"
	case FailDiffMismatch:
		return "diff-mismatch"
	case FailOpGrowth:
		return "op-growth"
	case FailTimeout:
		return "timeout"
	case FailCheck:
		return "check"
	case FailFold:
		return "fold"
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// BranchFailure is the typed, contained failure of one conditional's
// optimization attempt. It implements error so it can flow through the
// existing CondReport.Err field; the Kind makes it machine-classifiable.
type BranchFailure struct {
	Kind FailureKind
	// Cond and Line identify the conditional the failure was contained to.
	Cond ir.NodeID
	Line int
	// Msg describes the violation (one line).
	Msg string
	// Stack holds the recovered goroutine stack for FailPanic.
	Stack string
	// Err is the underlying error (ir.Validate's joined violations, a
	// shadow-run fault), when one exists.
	Err error
}

func (f *BranchFailure) Error() string {
	s := fmt.Sprintf("restructure: %s failure at conditional %d (line %d): %s",
		f.Kind, f.Cond, f.Line, f.Msg)
	if f.Err != nil {
		s += ": " + f.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying error for errors.Is / errors.As.
func (f *BranchFailure) Unwrap() error { return f.Err }

// panicFailure converts a recovered panic value into a typed failure,
// capturing the stack at the recovery point.
func panicFailure(cond ir.NodeID, line int, recovered interface{}) *BranchFailure {
	return &BranchFailure{
		Kind:  FailPanic,
		Cond:  cond,
		Line:  line,
		Msg:   fmt.Sprintf("recovered panic: %v", recovered),
		Stack: string(debug.Stack()),
	}
}
