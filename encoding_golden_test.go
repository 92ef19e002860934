package icbe

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
)

// demotedBranch matches the wire record of a nop that still carries a
// branch's condition: a branch the restructurer, prune or fold decided and
// demoted to a nop in place. The record's fields appear in wire order.
var demotedBranch = regexp.MustCompile(`"kind":9,"proc":\d+(,"line":\d+)?,"syn":true,"dst":-1,"cvar":`)

// TestOptimizedEncodingGolden pins the exact encoding of optimized
// programs, which TestCompileGolden (unoptimized programs only) does not:
// the SHA-256 of EncodeProgram for the seven paper programs after a
// full-tier Optimize (Check, Verify and Fold) and for the sixteen
// coldShapes programs under DefaultOptions. Each encoding must also
// survive DecodeProgram → EncodeProgram byte for byte. The corpus must
// contain a demoted branch, so the golden covers the nop records that
// carry a condition. Regenerate with -update only on purpose.
func TestOptimizedEncodingGolden(t *testing.T) {
	type optimized struct {
		name string
		src  string
		opts Options
	}
	var cases []optimized
	for _, w := range progs.All() {
		opts := DefaultOptions()
		opts.Workers = 1
		opts.Check, opts.Verify, opts.Fold = true, true, true
		opts.VerifyInputs = [][]int64{w.Train}
		cases = append(cases, optimized{"full/" + w.Name, w.Source, opts})
	}
	for _, sh := range coldShapes {
		for i, src := range coldSources(sh.gen) {
			opts := DefaultOptions()
			opts.Workers = 1
			cases = append(cases, optimized{fmt.Sprintf("cold/%s-%d", sh.name, i+1), src, opts})
		}
	}
	var b strings.Builder
	demoted := 0
	for _, c := range cases {
		p, err := Compile(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		opt, _, err := p.Optimize(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		enc := ir.EncodeProgram(opt.Graph())
		dec, err := ir.DecodeProgram(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if again := ir.EncodeProgram(dec); !bytes.Equal(again, enc) {
			t.Errorf("%s: decode → encode is not byte-identical", c.name)
		}
		demoted += len(demotedBranch.FindAll(enc, -1))
		fmt.Fprintf(&b, "%s %x\n", c.name, sha256.Sum256(enc))
	}
	if demoted == 0 {
		t.Error("no optimized program carries a demoted branch; the golden does not cover them")
	}
	t.Logf("%d demoted branches across %d programs", demoted, len(cases))

	path := filepath.Join("testdata", "optimized_encoding.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestOptimizedEncodingGolden -update): %v", err)
	}
	if string(want) != b.String() {
		t.Errorf("optimized encodings diverged\n--- want\n%s--- got\n%s", want, b.String())
	}
}
