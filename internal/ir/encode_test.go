package ir_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"icbe"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/pred"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

func compileT(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := icbe.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p.Graph()
}

func TestEncodeRoundtrip(t *testing.T) {
	for _, w := range progs.All() {
		g := compileT(t, w.Source)
		enc := ir.EncodeProgram(g)
		dec, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", w.Name, err)
		}
		if err := ir.Validate(dec); err != nil {
			t.Fatalf("%s: decoded program invalid: %v", w.Name, err)
		}
		if got := ir.EncodeProgram(dec); !bytes.Equal(got, enc) {
			t.Errorf("%s: re-encoding a decoded program is not byte-identical", w.Name)
		}
		if dec.Dump() != g.Dump() {
			t.Errorf("%s: decoded program dump differs from original", w.Name)
		}
	}
}

func TestEncodeRoundtripOptimized(t *testing.T) {
	// Optimized programs have deleted nodes (nil arena slots), split
	// entries/exits, and synthetic asserts; the codec must preserve the
	// arena shape exactly.
	w := progs.ByName("stdio")
	p, err := icbe.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := p.Optimize(icbe.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := opt.Graph()
	enc := ir.EncodeProgram(g)
	dec, err := ir.DecodeProgram(enc)
	if err != nil {
		t.Fatalf("decode optimized: %v", err)
	}
	if err := ir.Validate(dec); err != nil {
		t.Fatalf("decoded optimized program invalid: %v", err)
	}
	if !bytes.Equal(ir.EncodeProgram(dec), enc) {
		t.Errorf("optimized program does not round-trip byte-identically")
	}
	if dec.Dump() != g.Dump() {
		t.Errorf("optimized program dump differs after round-trip")
	}
	before, err := opt.Run(w.Train)
	if err != nil {
		t.Fatal(err)
	}
	after, err := interp.Run(dec, interp.Options{Input: w.Train})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Output) != len(after.Output) {
		t.Fatalf("decoded program output length differs: %d vs %d", len(before.Output), len(after.Output))
	}
	for i := range after.Output {
		if before.Output[i] != after.Output[i] {
			t.Fatalf("decoded program output differs at %d", i)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	g := compileT(t, `func main() { var a = input(); print(a); return 0; }`)
	enc := ir.EncodeProgram(g)

	cases := map[string][]byte{
		"truncated":   enc[:len(enc)/2],
		"empty":       nil,
		"not-json":    []byte("icbestore garbage"),
		"bad-version": bytes.Replace(enc, []byte(`"version":1`), []byte(`"version":99`), 1),
	}
	for name, data := range cases {
		if _, err := ir.DecodeProgram(data); err == nil {
			t.Errorf("%s: decode accepted damaged input", name)
		}
	}
}

func TestDecodeNoPanicOnBitFlips(t *testing.T) {
	g := compileT(t, `
func f(x) { if (x > 3) { return x; } return 0; }
func main() { var a = input(); var r = f(a); print(r); return 0; }
`)
	enc := ir.EncodeProgram(g)
	// Deterministic walk: flip one byte at a stride of positions; decode
	// must never panic, and any successful decode must survive Validate
	// being called on it (Validate may reject it — that is the
	// verify-on-read path working).
	for pos := 0; pos < len(enc); pos += 7 {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x20
		dec, err := ir.DecodeProgram(mut)
		if err != nil {
			continue
		}
		_ = ir.Validate(dec)
	}
}

// payloadKinds lists, for every payload field of the wire node record, the
// node kinds that hold it. A nop holds a branch's fields: the restructurer,
// the prune and fold demote a decided branch in place.
var payloadKinds = []struct {
	key   string
	value any
	kinds []ir.NodeKind
}{
	{"rhs", map[string]any{"kind": 1, "src": 1}, []ir.NodeKind{ir.NAssign, ir.NCallExit}},
	{"cvar", 1, []ir.NodeKind{ir.NBranch, ir.NNop}},
	{"cop", 2, []ir.NodeKind{ir.NBranch, ir.NNop}},
	{"crhs", map[string]any{"c": 3, "k": true}, []ir.NodeKind{ir.NBranch, ir.NNop}},
	{"avar", 1, []ir.NodeKind{ir.NAssert}},
	{"apop", 2, []ir.NodeKind{ir.NAssert}},
	{"apc", 3, []ir.NodeKind{ir.NAssert}},
	{"ptr", 1, []ir.NodeKind{ir.NStore}},
	{"idx", map[string]any{"v": 1}, []ir.NodeKind{ir.NStore}},
	{"val", map[string]any{"c": 3, "k": true}, []ir.NodeKind{ir.NStore, ir.NPrint}},
	{"callee", 1, []ir.NodeKind{ir.NCall, ir.NCallExit}},
	{"args", []any{1}, []ir.NodeKind{ir.NCall}},
	// Any kind holds a line, but only one that fits in int32.
	{"line", int64(1) << 40, nil},
}

// FuzzEncodeRoundTrip pins the per-kind codec. Generated programs, some
// optimized (decided branches demoted to nops that keep their condition),
// get random in-memory payload edits through the node setters — retyped
// nodes, another kind's payload written into the shared slots — and must
// still encode, decode and encode again to the same bytes. A record given
// a payload field its kind does not hold must then be rejected, while the
// same record without it decodes.
func FuzzEncodeRoundTrip(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 3, 7, 42} {
		f.Add(seed, seed*5)
	}
	f.Fuzz(func(t *testing.T, seed, mutSeed uint64) {
		prog, err := icbe.Compile(randprog.Generate(seed, randprog.Config{Procs: 3, MaxStmts: 4, MaxDepth: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if mutSeed%2 == 0 {
			if prog, _, err = prog.Optimize(icbe.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		p := prog.Graph()
		r := mutSeed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int((r >> 33) % uint64(n))
		}
		var live []ir.NodeID
		p.LiveNodes(func(n *ir.Node) { live = append(live, n.ID) })
		for range next(6) {
			n := p.Mut(live[next(len(live))])
			op := ir.ConstOp(int64(next(9) - 4))
			switch next(7) {
			case 0:
				n.Kind = ir.NodeKind(next(int(ir.NNop) + 1))
			case 1:
				n.SetRHS(ir.RHS{Kind: ir.RHSKind(next(8)), Const: int64(next(5)), A: op, Src: ir.VarID(next(3))})
			case 2:
				n.SetCond(ir.VarID(next(3)), pred.Op(next(6)), op)
			case 3:
				n.SetAssert(ir.VarID(next(3)), pred.Pred{Op: pred.Op(next(6)), C: int64(next(5))})
			case 4:
				n.SetStore(ir.VarID(next(3)), op, ir.VarOp(ir.VarID(next(3))))
			case 5:
				n.SetVal(op)
			default:
				n.Callee, n.Args = int32(next(3)), []ir.VarID{ir.VarID(next(3))}
			}
		}
		enc := ir.EncodeProgram(p)
		dec, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("decode of an encoding: %v", err)
		}
		if !bytes.Equal(ir.EncodeProgram(dec), enc) {
			t.Fatal("encode → decode → encode is not byte-identical")
		}

		// Give one record a payload field its kind does not hold.
		var doc map[string]any
		dj := json.NewDecoder(bytes.NewReader(enc))
		dj.UseNumber()
		if err := dj.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		nodes := doc["nodes"].([]any)
		rec := nodes[next(len(nodes))].(map[string]any)
		kn, _ := rec["kind"].(json.Number).Int64()
		var foreign []int
		for i, pk := range payloadKinds {
			if !slices.Contains(pk.kinds, ir.NodeKind(kn)) {
				foreign = append(foreign, i)
			}
		}
		field := payloadKinds[foreign[next(len(foreign))]]
		if _, err := ir.DecodeProgram(marshal(t, doc)); err != nil {
			t.Fatalf("re-marshaled encoding rejected: %v", err)
		}
		rec[field.key] = field.value
		if _, err := ir.DecodeProgram(marshal(t, doc)); err == nil {
			t.Fatalf("decode accepted %q on a %s node", field.key, ir.NodeKind(kn))
		}
	})
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
