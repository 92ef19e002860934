package pred

// This file keeps the SCCP oracle's private interval code that Range
// replaced — the lattice element it worked on, the comparison of two
// elements and the refinement of one by a predicate — unchanged but for its
// names, as the reference for Range.Compare and Range.Refine.

import "math"

// refValue is a lattice element for one variable at one program point: ⊤ (no
// executable computation seen yet), a single constant, a small integer
// interval [lo,hi], or ⊥ (provably more than the lattice models). Intervals
// let comparisons against bounds fold — byte() results live in [0,255], and
// branch-edge assertions clamp the tested variable — which is what makes
// the oracle decide branches the flow-insensitive lattice could not.
type refValue struct {
	kind uint8 // refVTop, refVConst, refVRange, refVBottom
	// lo is the constant for refVConst; [lo,hi] the interval for refVRange.
	// refVBottom carries the full int64 range so bound arithmetic is uniform.
	lo, hi int64
}

const (
	refVTop uint8 = iota
	refVConst
	refVBottom
	refVRange
)

func refTop() refValue             { return refValue{} }
func refConstant(c int64) refValue { return refValue{kind: refVConst, lo: c, hi: c} }
func refBottom() refValue          { return refValue{kind: refVBottom, lo: math.MinInt64, hi: math.MaxInt64} }

// refRangeValue builds the normalized lattice element covering [lo,hi]:
// singletons are constants and the full int64 range is ⊥, so structural
// equality keeps meaning lattice equality.
func refRangeValue(lo, hi int64) refValue {
	switch {
	case lo == hi:
		return refConstant(lo)
	case lo == math.MinInt64 && hi == math.MaxInt64:
		return refBottom()
	}
	return refValue{kind: refVRange, lo: lo, hi: hi}
}

// refRefine intersects a lattice element with the predicate (· op c),
// reporting ok=false when the intersection is empty. ⊤ carries no
// executable value and passes through untouched.
func refRefine(v refValue, op Op, c int64) (refValue, bool) {
	if v.kind == refVTop {
		return v, true
	}
	lo, hi := v.lo, v.hi
	switch op {
	case Eq:
		if c < lo || c > hi {
			return v, false
		}
		return refConstant(c), true
	case Ne:
		switch {
		case lo == hi:
			if lo == c {
				return v, false
			}
		case c == lo:
			return refRangeValue(lo+1, hi), true
		case c == hi:
			return refRangeValue(lo, hi-1), true
		}
		return v, true
	case Lt:
		if c == math.MinInt64 {
			return v, false
		}
		return refClampHi(v, lo, hi, c-1)
	case Le:
		return refClampHi(v, lo, hi, c)
	case Gt:
		if c == math.MaxInt64 {
			return v, false
		}
		return refClampLo(v, lo, hi, c+1)
	case Ge:
		return refClampLo(v, lo, hi, c)
	}
	return v, true
}

func refClampHi(v refValue, lo, hi, bound int64) (refValue, bool) {
	switch {
	case bound < lo:
		return v, false
	case bound >= hi:
		return v, true
	}
	return refRangeValue(lo, bound), true
}

func refClampLo(v refValue, lo, hi, bound int64) (refValue, bool) {
	switch {
	case bound > hi:
		return v, false
	case bound <= lo:
		return v, true
	}
	return refRangeValue(bound, hi), true
}

// refDecideValues folds a comparison over two lattice elements: True/False when
// the operand bounds decide it, Unknown otherwise (including ⊤ operands and
// malformed operators).
func refDecideValues(op Op, l, r refValue) Outcome {
	if !refValidOp(op) || l.kind == refVTop || r.kind == refVTop {
		return Unknown
	}
	llo, lhi := l.lo, l.hi
	rlo, rhi := r.lo, r.hi
	switch op {
	case Eq:
		if llo == lhi && rlo == rhi && llo == rlo {
			return True
		}
		if lhi < rlo || llo > rhi {
			return False
		}
	case Ne:
		if lhi < rlo || llo > rhi {
			return True
		}
		if llo == lhi && rlo == rhi && llo == rlo {
			return False
		}
	case Lt:
		if lhi < rlo {
			return True
		}
		if llo >= rhi {
			return False
		}
	case Le:
		if lhi <= rlo {
			return True
		}
		if llo > rhi {
			return False
		}
	case Gt:
		if llo > rhi {
			return True
		}
		if lhi <= rlo {
			return False
		}
	case Ge:
		if llo >= rhi {
			return True
		}
		if lhi < rlo {
			return False
		}
	}
	return Unknown
}

// refValidOp guards Op.Eval, which panics on out-of-range operators
// (possible only on fuzz-mutated graphs).
func refValidOp(op Op) bool { return op >= Eq && op <= Ge }
