// Package pred implements the small predicate algebra shared by the ICBE
// correlation analysis and the SCCP oracle. Queries and branch assertions in
// the paper are restricted to the form (var relop const); this package
// decides, given a fact about a variable's value (an exact constant, a value
// range, or a previously established relational assertion), whether a query
// predicate is implied true, implied false, or left undetermined, and
// narrows a range by a predicate.
//
// Facts are closed int64 ranges. Every representable value lies in
// [MinInt64, MaxInt64], so no bound needs to be infinite, and a predicate's
// satisfying set is at most two ranges.
package pred

import (
	"fmt"
	"math"
)

// Op is a relational operator appearing in a predicate (v Op C).
type Op uint8

// The six relational operators of MiniC conditionals.
const (
	Eq Op = iota // ==
	Ne           // !=
	Lt           // <
	Le           // <=
	Gt           // >
	Ge           // >=
)

var opNames = [...]string{Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}

func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Negate returns the operator computing the logical negation: !(v Op c) ==
// (v Negate(Op) c).
func (o Op) Negate() Op {
	switch o {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	panic(fmt.Sprintf("pred: invalid operator %d", int(o)))
}

// Eval evaluates (v Op c) for a concrete value v.
func (o Op) Eval(v, c int64) bool {
	switch o {
	case Eq:
		return v == c
	case Ne:
		return v != c
	case Lt:
		return v < c
	case Le:
		return v <= c
	case Gt:
		return v > c
	case Ge:
		return v >= c
	}
	panic(fmt.Sprintf("pred: invalid operator %d", int(o)))
}

// Pred is a predicate (v Op C) about an unnamed variable v.
type Pred struct {
	Op Op
	C  int64
}

func (p Pred) String() string { return fmt.Sprintf("%s %d", p.Op, p.C) }

// Negate returns the logical complement of p.
func (p Pred) Negate() Pred { return Pred{Op: p.Op.Negate(), C: p.C} }

// Eval evaluates the predicate for the concrete value v.
func (p Pred) Eval(v int64) bool { return p.Op.Eval(v, p.C) }

// Outcome is the three-valued result of deciding a predicate under a fact.
type Outcome int

// Outcomes of a decision: the predicate always holds, never holds, or is
// not determined by the fact.
const (
	Unknown Outcome = iota
	True
	False
)

func (o Outcome) String() string {
	switch o {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// outcome folds two one-sided verdicts into an Outcome.
func outcome(always, never bool) Outcome {
	switch {
	case always:
		return True
	case never:
		return False
	}
	return Unknown
}

// Range is the closed integer range [Lo, Hi]; Lo > Hi is the empty range.
type Range struct {
	Lo, Hi int64
}

// Empty reports whether the range holds no value.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// Decide reports whether every value in r satisfies p (True), no value does
// (False), or neither (Unknown). An empty range denotes unreachable state
// and decides True (any answer is sound; True keeps the common x != x style
// degenerate cases deterministic). It panics on an operator outside Eq..Ge
// unless r is empty.
func (r Range) Decide(p Pred) Outcome { return r.Compare(p.Op, Range{p.C, p.C}) }

// Compare decides (x op y) over every x in r and y in s: True when it holds
// for every pair, False when it holds for none, Unknown otherwise. An empty
// operand decides True, as in Decide. It panics on an operator outside
// Eq..Ge unless an operand is empty.
func (r Range) Compare(op Op, s Range) Outcome {
	if r.Empty() || s.Empty() {
		return True
	}
	same := r.Lo == r.Hi && r == s
	disjoint := r.Hi < s.Lo || r.Lo > s.Hi
	switch op {
	case Eq:
		return outcome(same, disjoint)
	case Ne:
		return outcome(disjoint, same)
	case Lt:
		return outcome(r.Hi < s.Lo, r.Lo >= s.Hi)
	case Le:
		return outcome(r.Hi <= s.Lo, r.Lo > s.Hi)
	case Gt:
		return outcome(r.Lo > s.Hi, r.Hi <= s.Lo)
	case Ge:
		return outcome(r.Lo >= s.Hi, r.Hi < s.Lo)
	}
	panic(fmt.Sprintf("pred: invalid operator %d", int(op)))
}

// Refine narrows r by p: the smallest range holding every value of r that
// satisfies p, with ok=false when no value does. The result is a hull, so
// (v != c) with c strictly inside r leaves r unchanged. It panics on an
// operator outside Eq..Ge.
func (r Range) Refine(p Pred) (Range, bool) {
	sat, n := p.sat()
	out := Range{math.MaxInt64, math.MinInt64}
	for _, s := range sat[:n] {
		lo, hi := max(r.Lo, s.Lo), min(r.Hi, s.Hi)
		if lo <= hi {
			out = Range{min(out.Lo, lo), max(out.Hi, hi)}
		}
	}
	return out, !out.Empty()
}

// sat returns the values satisfying p as n disjoint non-empty ranges in
// ascending order; n is at most two (for !=) and zero for (v < MinInt64)
// and (v > MaxInt64).
func (p Pred) sat() (rs [2]Range, n int) {
	switch p.Op {
	case Eq:
		rs[n] = Range{p.C, p.C}
		n++
	case Ne:
		if p.C != math.MinInt64 {
			rs[n] = Range{math.MinInt64, p.C - 1}
			n++
		}
		if p.C != math.MaxInt64 {
			rs[n] = Range{p.C + 1, math.MaxInt64}
			n++
		}
	case Lt:
		if p.C != math.MinInt64 {
			rs[n] = Range{math.MinInt64, p.C - 1}
			n++
		}
	case Le:
		rs[n] = Range{math.MinInt64, p.C}
		n++
	case Gt:
		if p.C != math.MaxInt64 {
			rs[n] = Range{p.C + 1, math.MaxInt64}
			n++
		}
	case Ge:
		rs[n] = Range{p.C, math.MaxInt64}
		n++
	default:
		panic(fmt.Sprintf("pred: invalid operator %d", int(p.Op)))
	}
	return rs, n
}

// DecidePred decides p over the values satisfying the fact predicate: True
// when all of them satisfy p, False when none does, Unknown otherwise. An
// unsatisfiable fact decides True, as an empty range does. The analysis'
// assert transfer sits on this call, once per node-query pair.
func DecidePred(fact, p Pred) Outcome {
	sat, n := fact.sat()
	o := True
	for i, r := range sat[:n] {
		d := r.Decide(p)
		if i > 0 && d != o {
			return Unknown
		}
		o = d
	}
	return o
}

// ShiftSat returns the satisfying set of (w Op C') where the original query
// was (v Op C) and v = w + k: solving for w shifts the constant by -k. It
// reports ok=false when the shifted constant would overflow int64, in which
// case the caller must give up on arithmetic back-substitution.
func ShiftSat(p Pred, k int64) (Pred, bool) {
	c := p.C
	// compute c - k with overflow check
	r := c - k
	if (k > 0 && r > c) || (k < 0 && r < c) {
		return Pred{}, false
	}
	return Pred{Op: p.Op, C: r}, true
}
