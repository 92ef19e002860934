package pred

import (
	"fmt"
	"math"
	"testing"
)

// rangeBounds are the bounds and constants of the exhaustive table: both
// int64 limits and their neighbours, the byte range's edges and their
// neighbours, and the values around zero.
var rangeBounds = []int64{
	math.MinInt64, math.MinInt64 + 1, -256, -1, 0, 1, 255, 256, math.MaxInt64 - 1, math.MaxInt64,
}

var allOps = []Op{Eq, Ne, Lt, Le, Gt, Ge}

// refHull is the reference for Refine: the smallest range holding a
// normalized reference set, ok=false when the set is empty.
func refHull(s refSet) (Range, bool) {
	if s.Empty() {
		return Range{}, false
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if first := s[0].Lo; first.Finite() {
		lo = first.Value()
	}
	if last := s[len(s)-1].Hi; last.Finite() {
		hi = last.Value()
	}
	return Range{lo, hi}, true
}

// decideRefineMismatch compares r.Decide(p) and r.Refine(p) with the set
// algebra and, for a non-empty r, Refine with the SCCP's old refinement of
// r's lattice element. It describes the first difference, or returns "".
func decideRefineMismatch(r Range, p Pred) string {
	if got, want := r.Decide(p), refDecide(refRange(r.Lo, r.Hi), p); got != want {
		return fmt.Sprintf("%v.Decide(%v) = %v, reference %v", r, p, got, want)
	}
	got, ok := r.Refine(p)
	want, wantOK := refHull(refRange(r.Lo, r.Hi).Intersect(p.refSat()))
	if ok != wantOK || (ok && got != want) {
		return fmt.Sprintf("%v.Refine(%v) = %v,%v, reference hull %v,%v", r, p, got, ok, want, wantOK)
	}
	if r.Empty() {
		return ""
	}
	v, vOK := refRefine(refRangeValue(r.Lo, r.Hi), p.Op, p.C)
	if ok != vOK || (ok && refRangeValue(got.Lo, got.Hi) != v) {
		return fmt.Sprintf("%v.Refine(%v) = %v,%v, reference refine %v,%v", r, p, got, ok, v, vOK)
	}
	return ""
}

// compareMismatch compares r.Compare(op, s) with the SCCP's old comparison
// of the two lattice elements; an empty operand must decide True.
func compareMismatch(r, s Range, op Op) string {
	want := True
	if !r.Empty() && !s.Empty() {
		want = refDecideValues(op, refRangeValue(r.Lo, r.Hi), refRangeValue(s.Lo, s.Hi))
	}
	if got := r.Compare(op, s); got != want {
		return fmt.Sprintf("%v.Compare(%s, %v) = %v, reference %v", r, op, s, got, want)
	}
	return ""
}

// decidePredMismatch compares DecidePred with the set algebra's.
func decidePredMismatch(fact, p Pred) string {
	if got, want := DecidePred(fact, p), refDecidePred(fact, p); got != want {
		return fmt.Sprintf("DecidePred(%v, %v) = %v, reference %v", fact, p, got, want)
	}
	return ""
}

func TestRangeMatchesReference(t *testing.T) {
	var ranges []Range
	for _, lo := range rangeBounds {
		for _, hi := range rangeBounds {
			ranges = append(ranges, Range{lo, hi}) // lo > hi: the empty ranges
		}
	}
	var preds []Pred
	for _, op := range allOps {
		for _, c := range rangeBounds {
			preds = append(preds, Pred{op, c})
		}
	}
	fail := func(msg string) {
		if msg != "" {
			t.Error(msg)
		}
	}
	for _, r := range ranges {
		for _, p := range preds {
			fail(decideRefineMismatch(r, p))
		}
		for _, s := range ranges {
			for _, op := range allOps {
				fail(compareMismatch(r, s, op))
			}
		}
	}
	for _, fact := range preds {
		for _, p := range preds {
			fail(decidePredMismatch(fact, p))
		}
	}
}

func FuzzRangeMatchesReference(f *testing.F) {
	f.Add(int64(0), int64(255), int64(0), int64(0), uint8(Eq), int64(-1), uint8(Ne), int64(0))
	f.Add(int64(math.MinInt64), int64(5), int64(math.MinInt64), int64(math.MinInt64),
		uint8(Lt), int64(math.MinInt64), uint8(Lt), int64(math.MinInt64))
	f.Add(int64(3), int64(math.MaxInt64), int64(7), int64(2), uint8(Ne), int64(3), uint8(Gt), int64(math.MaxInt64))
	f.Add(int64(-256), int64(-256), int64(-256), int64(256), uint8(Ge), int64(-256), uint8(Le), int64(-1))
	f.Fuzz(func(t *testing.T, lo, hi, lo2, hi2 int64, op uint8, c int64, factOp uint8, factC int64) {
		r, s := Range{lo, hi}, Range{lo2, hi2}
		p := Pred{Op(op % 6), c}
		for _, msg := range []string{
			decideRefineMismatch(r, p),
			compareMismatch(r, s, p.Op),
			decidePredMismatch(Pred{Op(factOp % 6), factC}, p),
		} {
			if msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// An operator outside Eq..Ge panics exactly where the set algebra panicked:
// deciding over an empty fact never looks at the operator, so it is True.
func TestInvalidOpMatchesReference(t *testing.T) {
	bad := Pred{Op(6), 0}
	if got := (Range{1, 0}).Decide(bad); got != True || refDecide(refRange(1, 0), bad) != True {
		t.Errorf("empty range decides %v under an invalid operator, want true", got)
	}
	if got := DecidePred(Pred{Lt, math.MinInt64}, bad); got != True || refDecidePred(Pred{Lt, math.MinInt64}, bad) != True {
		t.Errorf("unsatisfiable fact decides %v under an invalid operator, want true", got)
	}
	for name, f := range map[string]func(){
		"Decide":                    func() { Range{0, 5}.Decide(bad) },
		"reference Decide":          func() { refDecide(refRange(0, 5), bad) },
		"Compare":                   func() { Range{0, 5}.Compare(bad.Op, Range{1, 1}) },
		"Refine":                    func() { Range{0, 5}.Refine(bad) },
		"DecidePred fact":           func() { DecidePred(bad, Pred{Eq, 0}) },
		"reference DecidePred fact": func() { refDecidePred(bad, Pred{Eq, 0}) },
		"DecidePred query":          func() { DecidePred(Pred{Eq, 0}, bad) },
	} {
		if !panics(f) {
			t.Errorf("%s did not panic on an invalid operator", name)
		}
	}
}
