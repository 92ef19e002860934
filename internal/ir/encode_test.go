package ir_test

import (
	"bytes"
	"testing"

	"icbe"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
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
