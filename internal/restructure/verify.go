package restructure

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"icbe/internal/interp"
	"icbe/internal/ir"
)

// verifyMaxSteps bounds each shadow run of the working program so
// verification cannot stall the driver on a slow workload; inputs whose
// working run exhausts the budget are skipped, not failed (the step-limit
// error is typed, so "too slow" never masquerades as "wrong").
const verifyMaxSteps = 2_000_000

// verifyShadow differentially executes the working program and the fork
// over the verify inputs and returns a typed failure when the
// restructuring violated the paper's guarantee: output must be identical
// and the fork must never execute more operations (§3.2). Fault behaviour
// must be preserved too — a run that faults must keep faulting, with the
// same output prefix. Each input counts as one comparison in VerifyRuns.
//
// On success it returns the fork's runs to carry: a run that completed,
// fault or not, within maxSteps is the run maxSteps would give. Any other
// input stays unknown and runs fresh when next needed, since an input too
// slow before a restructuring may not be too slow after it.
func (w *working) verifyShadow(post *ir.Program) ([]*shadowRun, *BranchFailure) {
	t0 := time.Now()
	defer func() { w.stats.VerifyWall += time.Since(t0) }()
	pre := w.shadowRuns()
	carried := make([]*shadowRun, len(w.inputs))
	for i, in := range w.inputs {
		w.stats.VerifyRuns++
		preRes, preErr := pre[i].res, pre[i].err
		if errors.Is(preErr, interp.ErrStepLimit) {
			// The working program is too slow for the shadow budget on
			// this input; there is nothing sound to compare against.
			continue
		}
		// Steps count synthetic nodes too, which restructuring may add
		// even though operations never grow, so the post budget is the
		// original's step count with generous slack rather than an equal
		// bound.
		postRes, postErr := interp.Run(post, interp.Options{Input: in, MaxSteps: 2*preRes.Steps + 4096})
		if errors.Is(postErr, interp.ErrStepLimit) {
			return nil, &BranchFailure{Kind: FailOpGrowth, Msg: fmt.Sprintf(
				"shadow run exceeded its step budget on input %v (original: %d steps)", in, preRes.Steps)}
		}
		if (preErr != nil) != (postErr != nil) {
			return nil, &BranchFailure{Kind: FailDiffMismatch, Err: firstErr(preErr, postErr), Msg: fmt.Sprintf(
				"fault behaviour changed on input %v (original error: %v, optimized error: %v)", in, preErr, postErr)}
		}
		if !slices.Equal(preRes.Output, postRes.Output) {
			return nil, &BranchFailure{Kind: FailDiffMismatch, Msg: fmt.Sprintf(
				"output changed on input %v: %v -> %v", in, preRes.Output, postRes.Output)}
		}
		if postRes.Operations > preRes.Operations {
			return nil, &BranchFailure{Kind: FailOpGrowth, Msg: fmt.Sprintf(
				"executed operations grew on input %v: %d -> %d", in, preRes.Operations, postRes.Operations)}
		}
		if postRes.Steps <= w.maxSteps {
			carried[i] = &shadowRun{postRes, postErr}
		}
	}
	return carried, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyInputs builds the shadow-execution input set: the caller's
// workload vectors first, then the built-in vectors that cover the EOF
// model (empty stream), boundary values, and pseudo-random streams.
func verifyInputs(opts DriverOptions) [][]int64 {
	out := append([][]int64(nil), opts.VerifyInputs...)
	out = append(out,
		nil,
		[]int64{0},
		[]int64{1, 2, 3, 4, 5, 6, 7, 8},
		[]int64{-1, -2, -3, 0, 1, -128, 255, 256},
	)
	// Pseudo-random vectors from the same splitmix64 generator randprog
	// uses, so the fuzz harness and the driver probe comparable input
	// distributions. Fixed seeds keep driver results reproducible.
	for _, sv := range []struct {
		seed uint64
		n    int
	}{{3, 6}, {17, 11}, {99, 17}} {
		out = append(out, splitmixInputs(sv.seed, sv.n))
	}
	return out
}

func splitmixInputs(seed uint64, n int) []int64 {
	s := seed*2654435761 + 1
	v := make([]int64, n)
	for i := range v {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		v[i] = int64(z%257) - 128
	}
	return v
}
