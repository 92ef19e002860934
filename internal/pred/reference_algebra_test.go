package pred

// The unit tests of the reference set algebra (reference_test.go), which
// moved with it from the package's own tests: they pin the oracle that the
// range tests compare Range against.

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoundCmp(t *testing.T) {
	order := []refBound{refNegInf(), refFin(math.MinInt64), refFin(-1), refFin(0), refFin(1), refFin(math.MaxInt64), refPosInf()}
	for i, a := range order {
		for j, b := range order {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(%s,%s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestBoundValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Value on +inf did not panic")
		}
	}()
	refPosInf().Value()
}

func TestBoundSuccSaturates(t *testing.T) {
	if !refFin(math.MaxInt64).succ().IsPosInf() {
		t.Error("succ(MaxInt64) should be +inf")
	}
	if got := refFin(5).succ(); got.Cmp(refFin(6)) != 0 {
		t.Errorf("succ(5) = %s", got)
	}
	if !refPosInf().succ().IsPosInf() {
		t.Error("succ(+inf) should be +inf")
	}
}

func TestNormalizeMerges(t *testing.T) {
	s := refNormalize([]refInterval{
		{refFin(5), refFin(9)},
		{refFin(0), refFin(3)},
		{refFin(4), refFin(4)},   // adjacent to both: everything merges to [0,9]
		{refFin(20), refFin(10)}, // empty, dropped
	})
	want := refSet{{refFin(0), refFin(9)}}
	if !s.Equal(want) {
		t.Errorf("refNormalize = %v, want %v", s, want)
	}
}

func TestNormalizeKeepsGaps(t *testing.T) {
	s := refNormalize([]refInterval{{refFin(0), refFin(1)}, {refFin(3), refFin(4)}})
	if len(s) != 2 {
		t.Errorf("refNormalize merged across a gap: %v", s)
	}
	if s.Contains(2) {
		t.Error("gap value contained")
	}
}

func TestSetOperationsSemantics(t *testing.T) {
	// Property: membership distributes over Union/Intersect for sets built
	// from two predicates.
	f := func(op1, op2 uint8, c1, c2 int64, v int64) bool {
		a := Pred{Op: Op(op1 % 6), C: c1}.refSat()
		b := Pred{Op: Op(op2 % 6), C: c2}.refSat()
		u := a.Union(b)
		i := a.Intersect(b)
		inA, inB := a.Contains(v), b.Contains(v)
		return u.Contains(v) == (inA || inB) && i.Contains(v) == (inA && inB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	a := refRange(0, 10)
	b := refRange(3, 5)
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset relation wrong")
	}
	if !a.Intersects(b) {
		t.Error("intersects wrong")
	}
	c := refRange(11, 20)
	if a.Intersects(c) {
		t.Error("disjoint ranges reported intersecting")
	}
	if !(refSet{}).SubsetOf(a) {
		t.Error("empty set must be subset of everything")
	}
	if (refSet{}).Intersects(a) {
		t.Error("empty set intersects nothing")
	}
}

func TestSubsetConsistentWithIntersect(t *testing.T) {
	f := func(op1, op2 uint8, c1, c2 int64) bool {
		a := Pred{Op: Op(op1 % 6), C: c1}.refSat()
		b := Pred{Op: Op(op2 % 6), C: c2}.refSat()
		// a ⊆ b iff a ∩ b == a
		return a.SubsetOf(b) == a.Intersect(b).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetString(t *testing.T) {
	if got := (refSet{}).String(); got != "{}" {
		t.Errorf("empty set string = %q", got)
	}
	s := Pred{Ne, 0}.refSat()
	if got := s.String(); got != "[-inf,-1] ∪ [1,+inf]" {
		t.Errorf("Ne 0 set string = %q", got)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := refInterval{refFin(2), refFin(5)}
	if iv.Empty() || !iv.Contains(2) || !iv.Contains(5) || iv.Contains(6) || iv.Contains(1) {
		t.Errorf("interval membership wrong for %v", iv)
	}
	if got := iv.String(); got != "[2,5]" {
		t.Errorf("interval string = %q", got)
	}
	if !(refInterval{refFin(5), refFin(2)}).Empty() {
		t.Error("inverted interval not empty")
	}
}

func TestRangeBounds(t *testing.T) {
	if !refRangeBounds(refFin(3), refFin(2)).Empty() {
		t.Error("inverted refRangeBounds not empty")
	}
	s := refRangeBounds(refNegInf(), refFin(-1))
	if !s.Contains(math.MinInt64) || s.Contains(0) {
		t.Errorf("refRangeBounds(-inf,-1) = %v", s)
	}
}
