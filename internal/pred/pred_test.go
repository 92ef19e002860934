package pred

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
	if got := Op(99).String(); got != "Op(99)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestOpNegate(t *testing.T) {
	vals := []int64{-3, -1, 0, 1, 2, 7}
	for _, op := range []Op{Eq, Ne, Lt, Le, Gt, Ge} {
		for _, v := range vals {
			for _, c := range vals {
				if op.Eval(v, c) == op.Negate().Eval(v, c) {
					t.Fatalf("negation not complement: %d %s %d", v, op, c)
				}
			}
		}
	}
}

func TestOpNegateInvolution(t *testing.T) {
	for _, op := range []Op{Eq, Ne, Lt, Le, Gt, Ge} {
		if op.Negate().Negate() != op {
			t.Errorf("double negation of %s = %s", op, op.Negate().Negate())
		}
	}
}

// satContains reports whether v lies in one of p's satisfying ranges.
func satContains(p Pred, v int64) bool {
	rs, n := p.sat()
	for _, r := range rs[:n] {
		if r.Lo <= v && v <= r.Hi {
			return true
		}
	}
	return false
}

func TestPredSatMembership(t *testing.T) {
	// Property: v ∈ sat(p) iff p.Eval(v).
	f := func(opRaw uint8, c, v int64) bool {
		p := Pred{Op: Op(opRaw % 6), C: c}
		return satContains(p, v) == p.Eval(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredSatExtremes(t *testing.T) {
	if _, n := (Pred{Op: Lt, C: math.MinInt64}).sat(); n != 0 {
		t.Error("v < MinInt64 should be unsatisfiable")
	}
	if _, n := (Pred{Op: Gt, C: math.MaxInt64}).sat(); n != 0 {
		t.Error("v > MaxInt64 should be unsatisfiable")
	}
	ne := Pred{Op: Ne, C: math.MinInt64}
	if satContains(ne, math.MinInt64) || !satContains(ne, math.MinInt64+1) {
		t.Errorf("Ne MinInt64 wrong")
	}
	ne = Pred{Op: Ne, C: math.MaxInt64}
	if satContains(ne, math.MaxInt64) || !satContains(ne, math.MaxInt64-1) {
		t.Errorf("Ne MaxInt64 wrong")
	}
}

func TestPredNegateSatComplement(t *testing.T) {
	f := func(opRaw uint8, c, v int64) bool {
		p := Pred{Op: Op(opRaw % 6), C: c}
		return satContains(p, v) != satContains(p.Negate(), v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecide(t *testing.T) {
	full := Range{math.MinInt64, math.MaxInt64}
	tests := []struct {
		fact Range
		p    Pred
		want Outcome
	}{
		{Range{0, 0}, Pred{Eq, 0}, True},
		{Range{0, 0}, Pred{Ne, 0}, False},
		{Range{5, 5}, Pred{Lt, 10}, True},
		{Range{5, 5}, Pred{Gt, 10}, False},
		{Range{0, 255}, Pred{Ge, 0}, True},            // unsigned load
		{Range{0, 255}, Pred{Eq, -1}, False},          // EOF test on unsigned char
		{Range{0, 255}, Pred{Eq, 10}, Unknown},        // could be newline or not
		{Range{1, math.MaxInt64}, Pred{Eq, 0}, False}, // alloc never returns nil
		{Range{1, 0}, Pred{Eq, 0}, True},              // unreachable fact
		{full, Pred{Eq, 0}, Unknown},
		{Range{0, 255}, Pred{Le, 255}, True},
		{Range{0, 255}, Pred{Lt, 255}, Unknown},
		{Range{0, 255}, Pred{Gt, 255}, False},
		{full, Pred{Lt, math.MinInt64}, False}, // unsatisfiable predicate
		{full, Pred{Gt, math.MaxInt64}, False},
		{full, Pred{Le, math.MaxInt64}, True}, // tautological predicate
		{Range{math.MinInt64, math.MinInt64}, Pred{Le, math.MinInt64}, True},
	}
	for _, tc := range tests {
		if got := tc.fact.Decide(tc.p); got != tc.want {
			t.Errorf("%v.Decide(%v) = %v, want %v", tc.fact, tc.p, got, tc.want)
		}
	}
	preds := []struct {
		fact, p Pred
		want    Outcome
	}{
		{Pred{Ne, 0}, Pred{Eq, 0}, False}, // after deref, p == 0 is false
		{Pred{Ne, 0}, Pred{Ne, 0}, True},
		{Pred{Gt, 3}, Pred{Ge, 3}, True},    // v>3 implies v>=3
		{Pred{Ge, 3}, Pred{Gt, 3}, Unknown}, // v>=3 does not imply v>3
		{Pred{Le, -1}, Pred{Lt, 0}, True},   // v<=-1 implies v<0
		{Pred{Eq, 7}, Pred{Ne, 8}, True},
		{Pred{Lt, math.MinInt64}, Pred{Eq, 0}, True}, // unsatisfiable fact
	}
	for _, tc := range preds {
		if got := DecidePred(tc.fact, tc.p); got != tc.want {
			t.Errorf("DecidePred(%v, %v) = %v, want %v", tc.fact, tc.p, got, tc.want)
		}
	}
}

func TestDecideAgreesWithBruteForce(t *testing.T) {
	// Exhaustive check on a small universe: build facts and preds from
	// constants in [-3,3] and verify DecidePred against direct evaluation
	// over a sample window.
	consts := []int64{-3, -2, -1, 0, 1, 2, 3}
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	for _, fop := range ops {
		for _, fc := range consts {
			fact := Pred{Op: fop, C: fc}
			for _, qop := range ops {
				for _, qc := range consts {
					q := Pred{Op: qop, C: qc}
					allTrue, allFalse := true, true
					for v := int64(-10); v <= 10; v++ {
						if !fact.Eval(v) {
							continue
						}
						if q.Eval(v) {
							allFalse = false
						} else {
							allTrue = false
						}
					}
					// The window [-10,10] is wide enough: infinite tails
					// share the truth value of the window edge for these
					// operator constants, so the window verdict matches the
					// full verdict.
					got := DecidePred(fact, q)
					if allTrue && !allFalse && got != True {
						t.Errorf("fact (v %s %d), q (v %s %d): want True, got %v", fop, fc, qop, qc, got)
					}
					if allFalse && !allTrue && got != False {
						t.Errorf("fact (v %s %d), q (v %s %d): want False, got %v", fop, fc, qop, qc, got)
					}
					if !allTrue && !allFalse && got != Unknown {
						t.Errorf("fact (v %s %d), q (v %s %d): want Unknown, got %v", fop, fc, qop, qc, got)
					}
				}
			}
		}
	}
}

func TestShiftSat(t *testing.T) {
	p, ok := ShiftSat(Pred{Eq, 10}, 3) // v = w+3, v==10 -> w==7
	if !ok || p.C != 7 || p.Op != Eq {
		t.Errorf("ShiftSat = %v,%v", p, ok)
	}
	if _, ok := ShiftSat(Pred{Eq, math.MaxInt64}, -1); ok {
		t.Error("overflowing shift accepted")
	}
	if _, ok := ShiftSat(Pred{Eq, math.MinInt64}, 1); ok {
		t.Error("underflowing shift accepted")
	}
}

func TestShiftSatSemantics(t *testing.T) {
	f := func(opRaw uint8, c int64, k int16, w int64) bool {
		p := Pred{Op: Op(opRaw % 6), C: c}
		q, ok := ShiftSat(p, int64(k))
		if !ok {
			return true // overflow declined; nothing to check
		}
		// v = w + k, guard against overflow in the test itself
		v := w + int64(k)
		if (int64(k) > 0 && v < w) || (int64(k) < 0 && v > w) {
			return true
		}
		return p.Eval(v) == q.Eval(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
