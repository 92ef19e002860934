package pred

// This file keeps the interval-union set algebra that Range replaced,
// unchanged but for its names, as the reference the range tests and
// FuzzRangeMatchesReference compare Range, DecidePred and Refine against:
// facts and predicates are normalized unions of closed intervals with
// symbolic infinite endpoints, and a decision scans every interval.

import (
	"fmt"
	"math"
)

// refSat returns the set of integer values satisfying p.
func (p Pred) refSat() refSet { return refSet(p.refSatInto(nil)) }

// refSatInto appends the satisfying intervals of p (at most two) to ivs. With
// a caller-provided stack buffer it builds the set without heap allocation.
func (p Pred) refSatInto(ivs []refInterval) []refInterval {
	switch p.Op {
	case Eq:
		return append(ivs, refInterval{refFin(p.C), refFin(p.C)})
	case Ne:
		if p.C != math.MinInt64 {
			ivs = append(ivs, refInterval{refNegInf(), refFin(p.C - 1)})
		}
		if p.C != math.MaxInt64 {
			ivs = append(ivs, refInterval{refFin(p.C + 1), refPosInf()})
		}
		return ivs
	case Lt:
		if p.C == math.MinInt64 {
			return ivs
		}
		return append(ivs, refInterval{refNegInf(), refFin(p.C - 1)})
	case Le:
		return append(ivs, refInterval{refNegInf(), refFin(p.C)})
	case Gt:
		if p.C == math.MaxInt64 {
			return ivs
		}
		return append(ivs, refInterval{refFin(p.C + 1), refPosInf()})
	case Ge:
		return append(ivs, refInterval{refFin(p.C), refPosInf()})
	}
	panic(fmt.Sprintf("pred: invalid operator %d", int(p.Op)))
}

// refDecide reports whether every value in fact satisfies p (True), no value in
// fact satisfies p (False), or neither (Unknown). An empty fact set denotes
// unreachable state; refDecide returns True for it (any answer is sound; True
// keeps the common x != x style degenerate cases deterministic).
func refDecide(fact refSet, p Pred) Outcome { return refDecideIntervals(fact, p) }

// refDecidePred is refDecide with the fact given as a predicate's satisfying set:
// refDecide(fact.refSat(), p) without materializing the refSet. The analysis' assert
// transfer sits on this call, so the savings are per node-query pair.
func refDecidePred(fact, p Pred) Outcome {
	var buf [2]refInterval
	return refDecideIntervals(fact.refSatInto(buf[:0]), p)
}

// refDecideIntervals decides p against a union of disjoint non-empty closed
// intervals by comparing effective integer endpoints, with infinite bounds
// clamped to the int64 range (every representable value lies within it).
func refDecideIntervals(fact []refInterval, p Pred) Outcome {
	all, some := true, false
	for _, iv := range fact {
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if iv.Lo.Finite() {
			lo = iv.Lo.v
		}
		if iv.Hi.Finite() {
			hi = iv.Hi.v
		}
		var a, s bool
		switch p.Op {
		case Eq:
			a = lo == p.C && hi == p.C
			s = lo <= p.C && p.C <= hi
		case Ne:
			a = p.C < lo || hi < p.C
			s = !(lo == p.C && hi == p.C)
		case Lt:
			a = hi < p.C
			s = lo < p.C
		case Le:
			a = hi <= p.C
			s = lo <= p.C
		case Gt:
			a = lo > p.C
			s = hi > p.C
		case Ge:
			a = lo >= p.C
			s = hi >= p.C
		default:
			panic(fmt.Sprintf("pred: invalid operator %d", int(p.Op)))
		}
		all = all && a
		some = some || s
	}
	if all {
		return True
	}
	if !some {
		return False
	}
	return Unknown
}

// refBound is an interval endpoint: a finite int64 or one of the infinities.
type refBound struct {
	inf int8 // -1 = -inf, 0 = finite, +1 = +inf
	v   int64
}

// refNegInf returns the -infinity bound.
func refNegInf() refBound { return refBound{inf: -1} }

// refPosInf returns the +infinity bound.
func refPosInf() refBound { return refBound{inf: 1} }

// refFin returns a finite bound with value v.
func refFin(v int64) refBound { return refBound{v: v} }

// IsNegInf reports whether b is -infinity.
func (b refBound) IsNegInf() bool { return b.inf < 0 }

// IsPosInf reports whether b is +infinity.
func (b refBound) IsPosInf() bool { return b.inf > 0 }

// Finite reports whether b is a finite value.
func (b refBound) Finite() bool { return b.inf == 0 }

// Value returns the finite value of b; it panics on an infinite bound.
func (b refBound) Value() int64 {
	if b.inf != 0 {
		panic("pred: Value on infinite bound")
	}
	return b.v
}

// Cmp compares two bounds: -1 if b < c, 0 if equal, +1 if b > c.
func (b refBound) Cmp(c refBound) int {
	if b.inf != c.inf {
		if b.inf < c.inf {
			return -1
		}
		return 1
	}
	if b.inf != 0 {
		return 0
	}
	switch {
	case b.v < c.v:
		return -1
	case b.v > c.v:
		return 1
	}
	return 0
}

func (b refBound) String() string {
	switch {
	case b.inf < 0:
		return "-inf"
	case b.inf > 0:
		return "+inf"
	}
	return fmt.Sprintf("%d", b.v)
}

// succ returns the bound one greater than b (finite bounds only; saturates
// at +inf when b is MaxInt64).
func (b refBound) succ() refBound {
	if !b.Finite() {
		return b
	}
	if b.v == math.MaxInt64 {
		return refPosInf()
	}
	return refFin(b.v + 1)
}

// refInterval is a closed integer interval [Lo, Hi]; Lo/Hi may be infinite.
type refInterval struct {
	Lo, Hi refBound
}

// Empty reports whether the interval contains no integers.
func (iv refInterval) Empty() bool { return iv.Lo.Cmp(iv.Hi) > 0 }

// Contains reports whether v lies in the interval.
func (iv refInterval) Contains(v int64) bool {
	return iv.Lo.Cmp(refFin(v)) <= 0 && refFin(v).Cmp(iv.Hi) <= 0
}

func (iv refInterval) String() string {
	return fmt.Sprintf("[%s,%s]", iv.Lo, iv.Hi)
}

// refSet is a normalized union of disjoint, sorted, non-adjacent intervals.
type refSet []refInterval

// refAll returns the set of all integers.
func refAll() refSet { return refSet{{refNegInf(), refPosInf()}} }

// refSingle returns the singleton set {v}.
func refSingle(v int64) refSet { return refSet{{refFin(v), refFin(v)}} }

// refRange returns the set [lo, hi] with finite endpoints. An inverted range is
// empty.
func refRange(lo, hi int64) refSet {
	if lo > hi {
		return refSet{}
	}
	return refSet{{refFin(lo), refFin(hi)}}
}

// refRangeBounds returns the set [lo, hi] for arbitrary bounds.
func refRangeBounds(lo, hi refBound) refSet {
	iv := refInterval{lo, hi}
	if iv.Empty() {
		return refSet{}
	}
	return refSet{iv}
}

// refNormalize sorts and merges overlapping or adjacent intervals, dropping
// empty ones. It returns a fresh normalized set.
func refNormalize(ivs []refInterval) refSet {
	var nonEmpty []refInterval
	for _, iv := range ivs {
		if !iv.Empty() {
			nonEmpty = append(nonEmpty, iv)
		}
	}
	if len(nonEmpty) == 0 {
		return refSet{}
	}
	// Insertion sort by Lo: sets here are tiny (≤ 3 intervals in practice).
	for i := 1; i < len(nonEmpty); i++ {
		for j := i; j > 0 && nonEmpty[j].Lo.Cmp(nonEmpty[j-1].Lo) < 0; j-- {
			nonEmpty[j], nonEmpty[j-1] = nonEmpty[j-1], nonEmpty[j]
		}
	}
	out := refSet{nonEmpty[0]}
	for _, iv := range nonEmpty[1:] {
		last := &out[len(out)-1]
		// Merge if iv.Lo <= last.Hi+1 (overlapping or adjacent).
		if iv.Lo.Cmp(last.Hi.succ()) <= 0 {
			if iv.Hi.Cmp(last.Hi) > 0 {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Empty reports whether the set contains no integers.
func (s refSet) Empty() bool { return len(s) == 0 }

// Contains reports whether v is a member of the set.
func (s refSet) Contains(v int64) bool {
	for _, iv := range s {
		if iv.Contains(v) {
			return true
		}
	}
	return false
}

// Intersect returns the normalized intersection of s and t.
func (s refSet) Intersect(t refSet) refSet {
	var out []refInterval
	for _, a := range s {
		for _, b := range t {
			lo := a.Lo
			if b.Lo.Cmp(lo) > 0 {
				lo = b.Lo
			}
			hi := a.Hi
			if b.Hi.Cmp(hi) < 0 {
				hi = b.Hi
			}
			iv := refInterval{lo, hi}
			if !iv.Empty() {
				out = append(out, iv)
			}
		}
	}
	return refNormalize(out)
}

// Union returns the normalized union of s and t.
func (s refSet) Union(t refSet) refSet {
	all := make([]refInterval, 0, len(s)+len(t))
	all = append(all, s...)
	all = append(all, t...)
	return refNormalize(all)
}

// Intersects reports whether s and t share at least one integer.
func (s refSet) Intersects(t refSet) bool {
	for _, a := range s {
		for _, b := range t {
			lo := a.Lo
			if b.Lo.Cmp(lo) > 0 {
				lo = b.Lo
			}
			hi := a.Hi
			if b.Hi.Cmp(hi) < 0 {
				hi = b.Hi
			}
			if !(refInterval{lo, hi}).Empty() {
				return true
			}
		}
	}
	return false
}

// SubsetOf reports whether every integer in s is also in t.
func (s refSet) SubsetOf(t refSet) bool {
	for _, a := range s {
		if !t.covers(a) {
			return false
		}
	}
	return true
}

// covers reports whether interval a is fully contained in the set.
func (s refSet) covers(a refInterval) bool {
	for _, b := range s {
		if b.Lo.Cmp(a.Lo) <= 0 && a.Hi.Cmp(b.Hi) <= 0 {
			return true
		}
	}
	return false
}

// Equal reports set equality (both sets must be normalized).
func (s refSet) Equal(t refSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i].Lo.Cmp(t[i].Lo) != 0 || s[i].Hi.Cmp(t[i].Hi) != 0 {
			return false
		}
	}
	return true
}

func (s refSet) String() string {
	if len(s) == 0 {
		return "{}"
	}
	out := ""
	for i, iv := range s {
		if i > 0 {
			out += " ∪ "
		}
		out += iv.String()
	}
	return out
}
