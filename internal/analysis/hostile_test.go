package analysis_test

import (
	"encoding/json"
	"testing"

	"icbe"
	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Hostile-bytes hardening for the portable-record surface. Records can
// cross process boundaries (SeedRecords takes them from any caller), so the
// decode side must be fail-closed against bytes no honest writer would
// produce: truncated documents, garbage field values, duplicate keys. The contract is
// that Inject never panics, rejects every invalid record, and leaves the memo
// with no partial mutation — a poisoned payload yields exactly the cold run.

// hostileSrc is small enough to optimize per-case but has a call with
// conditionals on both sides, so real summary records exist to corrupt.
const hostileSrc = `
func check(x) {
	if (x == 0) { return 1; }
	return 0;
}

func main() {
	var a = 0;
	if (check(a) == 1) { print(1); }
	print(2);
}
`

// coldRun optimizes hostileSrc with the given memo and returns the optimized
// dump plus the report's headline counters.
func coldRun(t testing.TB, m *analysis.SummaryMemo) (string, int, int) {
	t.Helper()
	p, err := icbe.Compile(hostileSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := icbe.DefaultOptions()
	opts.SummaryMemo = m
	opt, rep, err := p.Optimize(opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return opt.Dump(), rep.Optimized, rep.PairsTotal
}

// hostileGraph returns a fresh compile of hostileSrc for Inject to validate
// against.
func hostileGraph(t testing.TB) *ir.Program {
	t.Helper()
	p, err := icbe.Compile(hostileSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p.Graph()
}

// exportedJSON runs hostileSrc once and returns its pristine records both as
// a slice and as the marshaled wire bytes a worker would send.
func exportedJSON(t testing.TB) ([]analysis.PortableRecord, []byte) {
	t.Helper()
	m := analysis.NewSummaryMemo()
	coldRun(t, m)
	recs := m.ExportPristine()
	if len(recs) == 0 {
		t.Fatalf("hostileSrc produced no summary records")
	}
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatalf("marshal records: %v", err)
	}
	return recs, raw
}

// TestInjectHostileBytes drives raw wire payloads through the decode+Inject
// path an untrusted peer would reach.
func TestInjectHostileBytes(t *testing.T) {
	recs, raw := exportedJSON(t)
	wantDump, wantOpt, wantPairs := coldRun(t, analysis.NewSummaryMemo())

	// Truncated documents fail at the JSON layer — decode is the first gate,
	// and a cut-off frame never reaches Inject at all.
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		var got []analysis.PortableRecord
		if err := json.Unmarshal(raw[:cut], &got); err == nil {
			t.Errorf("truncated payload (%d of %d bytes) decoded without error", cut, len(raw))
		}
	}

	// Parseable garbage: every record carries references no program has.
	// Inject must return 0, and the memo must behave exactly like a fresh
	// one afterward — no partial mutation.
	hostile := [][]byte{
		[]byte(`[{"key":{"exit":2147483647,"var":0,"op":0,"c":0}}]`),
		[]byte(`[{"key":{"exit":-1,"var":-5,"op":0,"c":0}}]`),
		[]byte(`[{"key":{"exit":0,"var":0,"op":255,"c":9}}]`),
		[]byte(`[{"key":{"exit":0,"var":999999,"op":1,"c":0},"pairs":[{"node":3,"var":0,"op":1,"c":0,"ans":255}]}]`),
		[]byte(`[{"key":{"exit":0,"var":0,"op":1,"c":0},"touched":[9,3,1]}]`),
		[]byte(`[{"key":{"exit":0,"var":0,"op":1,"c":0},"nested":[{"exit":0,"var":0,"op":1,"c":777777}]}]`),
	}
	for _, payload := range hostile {
		var got []analysis.PortableRecord
		if err := json.Unmarshal(payload, &got); err != nil {
			t.Fatalf("hostile payload must parse to exercise Inject: %v\n%s", err, payload)
		}
		m := analysis.NewSummaryMemo()
		if n := m.Inject(hostileGraph(t), got); n != 0 {
			t.Errorf("Inject accepted %d hostile records from %s", n, payload)
		}
		if exp := m.ExportPristine(); len(exp) != 0 {
			t.Errorf("hostile inject left %d records in the memo", len(exp))
		}
		dump, opt, pairs := coldRun(t, m)
		if dump != wantDump || opt != wantOpt || pairs != wantPairs {
			t.Errorf("memo mutated by rejected payload %s: run diverged from cold", payload)
		}
	}

	// Duplicate keys: only one record per key survives, whichever order the
	// duplicates arrive in, and a garbage duplicate never displaces a valid
	// record.
	g := hostileGraph(t)
	valid := recs[0]
	garbage := valid
	garbage.Pairs = []analysis.PortablePair{{Node: -1, Var: -1, Op: pred.Op(200), C: 0}}
	for name, pair := range map[string][]analysis.PortableRecord{
		"valid-then-valid":   {valid, valid},
		"valid-then-garbage": {valid, garbage},
		"garbage-then-valid": {garbage, valid},
	} {
		if n := analysis.NewSummaryMemo().Inject(g, pair); n != 1 {
			t.Errorf("%s: Inject accepted %d records, want exactly 1", name, n)
		}
	}

	// Re-injecting into a memo that already holds the keys is a no-op.
	m := analysis.NewSummaryMemo()
	if n := m.Inject(g, recs); n != len(recs) {
		t.Fatalf("clean inject accepted %d of %d", n, len(recs))
	}
	if n := m.Inject(g, recs); n != 0 {
		t.Errorf("second inject accepted %d records, want 0", n)
	}
}

// FuzzInject feeds arbitrary bytes through the wire decode into Inject. Any
// input that parses must be injectable without panic, never over-accept, and
// never leave exportable state behind; injecting the same payload twice must
// be a no-op the second time.
func FuzzInject(f *testing.F) {
	recs, raw := exportedJSON(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"key":{"exit":0,"var":0,"op":1,"c":0}}]`))
	if dup, err := json.Marshal([]analysis.PortableRecord{recs[0], recs[0]}); err == nil {
		f.Add(dup)
	}
	g := hostileGraph(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got []analysis.PortableRecord
		if err := json.Unmarshal(data, &got); err != nil {
			return // fail-closed at the decode gate
		}
		m := analysis.NewSummaryMemo()
		n := m.Inject(g, got)
		if n < 0 || n > len(got) {
			t.Fatalf("Inject accepted %d of %d records", n, len(got))
		}
		if exp := m.ExportPristine(); len(exp) != 0 {
			t.Fatalf("injected records re-exported: %d", len(exp))
		}
		if again := m.Inject(g, got); again != 0 {
			t.Fatalf("second inject of the same payload accepted %d records", again)
		}
	})
}
