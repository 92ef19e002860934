package minic_test

import (
	"runtime"
	"testing"

	"icbe/internal/minic"
	"icbe/internal/randprog"
)

// generatedSources are seed-1 programs of the benchmark's `recursion` and
// `scale-cold` shapes.
func generatedSources() map[string]string {
	return map[string]string{
		"recursion":  randprog.Recursion(1, randprog.RecConfig{Chains: 4, ChainLen: 4, Depth: 40, BodyStmts: 60, Globals: 3}),
		"scale-cold": randprog.Scale(1, randprog.ScaleConfig{Leaves: 20, LeafStmts: 80, Hubs: 6}),
	}
}

// TestLexAllAllocatesOnce checks LexAll's presize: its token slice fits a
// generated program without regrowing.
func TestLexAllAllocatesOnce(t *testing.T) {
	for name, src := range generatedSources() {
		if n := testing.AllocsPerRun(3, func() { _, _ = minic.LexAll(src) }); n != 1 {
			t.Errorf("%s: LexAll made %v allocations, want 1", name, n)
		}
	}
}

// TestParseAllocatesOnlyTheAST bounds what Parse allocates per source byte.
// The parser streams its tokens; a token slice alone would be 32 bytes per
// token, about 15 per source byte, on top of the AST's 12–13.
func TestParseAllocatesOnlyTheAST(t *testing.T) {
	const maxPerByte = 20
	for name, src := range generatedSources() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := minic.Parse(src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src)); per > maxPerByte {
			t.Errorf("%s: Parse allocated %.1f bytes per source byte, want at most %d", name, per, maxPerByte)
		}
	}
}
