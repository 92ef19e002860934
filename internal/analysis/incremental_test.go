package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
)

// faultSrc: the conditional on g in main crosses two calls of callee, which
// modifies g, so its analysis waits on one summary of callee, a record with
// no nested summaries.
const faultSrc = `
var g = 0;
func callee(a0) {
	if (a0 > 0) { g = g + 1; }
	var x = a0 + 1;
	x = x + 2;
	x = x - a0;
	return x;
}
func main() {
	var h = callee(3);
	h = callee(h);
	if (g == 0) { print(1); }
	print(h);
	return 0;
}
`

// nestSrc is faultSrc one call deeper: outer's summary for g == 0 waits on
// inner's, so the outer record nests the inner one. The uncalled probe
// tests g after calling inner directly, so its analysis needs inner's
// summary alone.
const nestSrc = `
var g = 0;
func inner(a0) {
	if (a0 > 0) { g = g + 1; }
	return a0 + 1;
}
func outer(a1) {
	var y = inner(a1);
	return y + 2;
}
func probe() {
	var k = inner(1);
	if (g == 0) { print(k); }
	return 0;
}
func main() {
	var h = outer(3);
	h = outer(h);
	if (g == 0) { print(1); }
	print(h);
	return 0;
}
`

// condIn returns the analyzable branch of the named procedure.
func condIn(t *testing.T, p *ir.Program, proc string) ir.NodeID {
	t.Helper()
	for _, b := range allAnalyzable(p) {
		if p.Procs[b.Proc].Name == proc {
			return b.ID
		}
	}
	t.Fatalf("no analyzable branch in %s", proc)
	return ir.NoNode
}

// snapshot is everything a replayed analysis must reproduce of a fresh one:
// the root answers, the cost counters and every pair with its rolled-back
// answers, resolution and suppliers. Replay interns a summary's closure at
// the moment the summary is demanded rather than interleaved with the rest
// of the worklist, so raise order may differ and pairs compare as a set.
type snapshot struct {
	root              AnswerSet
	raised, processed int
	truncated         bool
	pairs             string
}

func ownerName(s *SNE) string {
	if s == nil {
		return "top"
	}
	return fmt.Sprintf("sne(%d,%d,%v)", s.Exit, s.Qsn.Var, s.Qsn.P)
}

func snap(r *Result) snapshot {
	var pairs []string
	r.ForEachPair(func(n ir.NodeID, q *Query, ans AnswerSet) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d %d %v %s ans=%v", n, q.Var, q.P, ownerName(q.Owner), ans)
		if res, ok := r.ResolvedAt(n, q); ok {
			fmt.Fprintf(&b, " res=%v", res)
		}
		for _, es := range r.SuppliersAt(n, q) {
			fmt.Fprintf(&b, " <%d %d %v %s %v %v>", es.Pred, es.Query.Var, es.Query.P,
				ownerName(es.Query.Owner), es.Mask, es.FromExit)
		}
		pairs = append(pairs, b.String())
	})
	sort.Strings(pairs)
	return snapshot{root: r.RootAnswers(), raised: r.PairsRaised, processed: r.PairsProcessed,
		truncated: r.Truncated, pairs: strings.Join(pairs, "\n")}
}

func sameAsFresh(t *testing.T, label string, got, want snapshot) {
	t.Helper()
	if got.root != want.root || got.raised != want.raised || got.processed != want.processed ||
		got.truncated != want.truncated {
		t.Errorf("%s: ans=%v pairs=%d/%d truncated=%v, fresh ans=%v pairs=%d/%d truncated=%v", label,
			got.root, got.processed, got.raised, got.truncated,
			want.root, want.processed, want.raised, want.truncated)
	}
	if got.pairs != want.pairs {
		t.Errorf("%s: pairs diverged from the fresh run\n--- fresh\n%s\n--- replayed\n%s", label, want.pairs, got.pairs)
	}
}

// freshSnap analyzes b without a memo.
func freshSnap(p *ir.Program, b ir.NodeID) snapshot {
	r := New(p, inter()).AnalyzeBranch(b)
	defer r.Release()
	return snap(r)
}

// recordedMemo analyzes b once into a new memo and commits the records.
func recordedMemo(t *testing.T, p *ir.Program, b ir.NodeID) *SummaryMemo {
	t.Helper()
	m := NewSummaryMemo()
	NewWithMemo(p, inter(), m).AnalyzeBranch(b).Release()
	m.Commit(nil)
	if m.Entries() == 0 {
		t.Fatal("the recording run committed no summary records")
	}
	return m
}

// replaySnap analyzes b against the memo and returns the snapshot and the
// number of pairs the run reused from records.
func replaySnap(p *ir.Program, b ir.NodeID, m *SummaryMemo) (snapshot, int) {
	r := NewWithMemo(p, inter(), m).AnalyzeBranch(b)
	defer r.Release()
	return snap(r), r.QueriesReused
}

// TestSummaryReplayIntact replays committed summary records and checks the
// result is indistinguishable from a memo-less analysis.
func TestSummaryReplayIntact(t *testing.T) {
	for name, src := range map[string]string{"fault": faultSrc, "nest": nestSrc} {
		t.Run(name, func(t *testing.T) {
			p := build(t, src)
			b := condIn(t, p, "main")
			m := recordedMemo(t, p, b)
			got, reused := replaySnap(p, b, m)
			if reused == 0 {
				t.Fatal("replay reused nothing")
			}
			if m.Hits() == 0 {
				t.Error("memo counted no hits for a replay")
			}
			sameAsFresh(t, "replay", got, freshSnap(p, b))
		})
	}
}

// recordsOf splits the memo's committed records into leaves (no nested
// summaries) and the records that nest them.
func recordsOf(m *SummaryMemo) (leaves, parents []*memoRecord) {
	for _, rec := range m.committed {
		if len(rec.nested) == 0 {
			leaves = append(leaves, rec)
		} else {
			parents = append(parents, rec)
		}
	}
	return leaves, parents
}

// TestSummaryRegionInvalidation checks the Commit contract: a dirty set
// that hits a record's touched region drops that record and every record
// nesting it, a dirty set outside every region drops nothing, and the next
// analysis matches a fresh one either way. The outer record is made either
// in the same run as the inner one or, in a later run, over a replay of it.
func TestSummaryRegionInvalidation(t *testing.T) {
	p := build(t, nestSrc)
	b := condIn(t, p, "main")
	want := freshSnap(p, b)
	t.Run("same-run", func(t *testing.T) {
		checkInvalidation(t, p, b, want, recordedMemo(t, p, b))
	})
	t.Run("over-replay", func(t *testing.T) {
		m := recordedMemo(t, p, condIn(t, p, "probe"))
		if m.Entries() != 1 {
			t.Fatalf("probe's conditional committed %d records, want inner's alone", m.Entries())
		}
		if _, reused := replaySnap(p, b, m); reused == 0 {
			t.Fatal("main's conditional did not replay inner's record")
		}
		m.Commit(nil)
		checkInvalidation(t, p, b, want, m)
	})
}

func checkInvalidation(t *testing.T, p *ir.Program, b ir.NodeID, want snapshot, m *SummaryMemo) {
	t.Helper()
	leaves, parents := recordsOf(m)
	if len(leaves) != 1 || len(parents) != 1 {
		t.Fatalf("want one inner and one outer record, got %d leaves and %d parents", len(leaves), len(parents))
	}

	// The conditional itself lies outside every summary's region.
	m.Commit(dirtyBits(b))
	if m.Entries() != 2 || m.Invalidated() != 0 {
		t.Fatalf("a dirty node outside every region dropped records: %d left, %d invalidated",
			m.Entries(), m.Invalidated())
	}
	got, reused := replaySnap(p, b, m)
	if reused == 0 {
		t.Error("records outside the dirty region were not replayed")
	}
	sameAsFresh(t, "after an unrelated commit", got, want)

	// Dirtying the inner region must take the outer record with it. The
	// dirty node is interior to inner: its entry and exit are also linkage
	// nodes of outer's own region.
	interior := ir.NoNode
	for _, n := range leaves[0].touched {
		if k := p.Node(n).Kind; k != ir.NEntry && k != ir.NExit {
			interior = n
			break
		}
	}
	m.Commit(dirtyBits(interior))
	if m.Entries() != 0 || m.Invalidated() != 2 {
		t.Fatalf("dirtying the inner region left %d records and invalidated %d, want 0 and 2",
			m.Entries(), m.Invalidated())
	}
	got, reused = replaySnap(p, b, m)
	if reused != 0 {
		t.Errorf("replayed %d pairs from invalidated records", reused)
	}
	sameAsFresh(t, "after invalidation", got, want)
}

// dirtyBits returns the dirty bitset Commit takes, with the given node IDs
// set and no word past the highest of them.
func dirtyBits(ids ...ir.NodeID) []uint64 {
	var bits []uint64
	for _, id := range ids {
		for int(id>>6) >= len(bits) {
			bits = append(bits, 0)
		}
		bits[id>>6] |= 1 << (uint(id) & 63)
	}
	return bits
}

// TestSummaryCommitShortBitset checks dirty bitsets that end before a
// record's highest touched node: IDs past the bitset count as clean, so
// only a set bit inside the bitset drops the record, and Commit neither
// reads past the bitset nor drops a record for nodes beyond it.
func TestSummaryCommitShortBitset(t *testing.T) {
	rec := &memoRecord{touched: []ir.NodeID{3, 70, 200}}
	for _, tc := range []struct {
		name  string
		dirty []uint64
		want  bool
	}{
		{"empty", nil, false},
		{"first word, hit", dirtyBits(3), true},
		{"first word, clean", dirtyBits(5), false},
		{"ends before 70 and 200", dirtyBits(70)[:1], false},
		{"second word, hit", dirtyBits(70), true},
		{"ends before 200", dirtyBits(200)[:3], false},
		{"covers 200", dirtyBits(200), true},
	} {
		if got := rec.touchesDirty(tc.dirty); got != tc.want {
			t.Errorf("%s: touchesDirty(%x) = %v, want %v", tc.name, tc.dirty, got, tc.want)
		}
	}

	p := build(t, nestSrc)
	m := recordedMemo(t, p, condIn(t, p, "main"))
	entries := m.Entries()
	last := ir.NodeID(0)
	for _, rec := range m.committed {
		last = max(last, rec.touched[len(rec.touched)-1])
	}
	m.Commit(make([]uint64, last>>6))
	if m.Entries() != entries || m.Invalidated() != 0 {
		t.Fatalf("a clean bitset shorter than the records' regions dropped records: %d of %d left, %d invalidated",
			m.Entries(), entries, m.Invalidated())
	}
}

// TestSummaryMissingNested deletes the nested record under a committed
// parent: replaySNE must refuse the parent and the run must propagate both
// summaries fresh, with the fresh answers and counters.
func TestSummaryMissingNested(t *testing.T) {
	p := build(t, nestSrc)
	b := condIn(t, p, "main")
	m := recordedMemo(t, p, b)
	leaves, parents := recordsOf(m)
	if len(leaves) != 1 || len(parents) != 1 {
		t.Fatalf("want one inner and one outer record, got %d leaves and %d parents", len(leaves), len(parents))
	}
	delete(m.committed, leaves[0].key)

	got, reused := replaySnap(p, b, m)
	if reused != 0 {
		t.Errorf("replayed %d pairs from a record whose nested summary is gone", reused)
	}
	sameAsFresh(t, "missing nested record", got, freshSnap(p, b))
}

// TestSummaryMemoCorpusExactness analyzes every conditional of every
// workload serially through one shared memo, committed after each
// conditional, and compares each result pair for pair with a memo-less run.
func TestSummaryMemoCorpusExactness(t *testing.T) {
	reused := 0
	for _, w := range progs.All() {
		p := build(t, w.Source)
		m := NewSummaryMemo()
		for _, b := range allAnalyzable(p) {
			got, n := replaySnap(p, b.ID, m)
			m.Commit(nil)
			reused += n
			sameAsFresh(t, fmt.Sprintf("%s line %d", w.Name, b.Line), got, freshSnap(p, b.ID))
		}
	}
	if reused == 0 {
		t.Error("no conditional reused a summary record; the corpus exercised no replay")
	}
}
