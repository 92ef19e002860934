package minic

import "testing"

// FuzzParseSeeds is FuzzParse's seed corpus. TestCompileGolden pins what
// each of them compiles to, or the error text it fails with.
var FuzzParseSeeds = []string{
	"",
	"func main() { }",
	"func main() { print(1); }",
	"var g = 3; func main() { if (g == 3) { print(g); } }",
	"func f(a, b) { return a + b; } func main() { print(f(1, 2)); }",
	"func main() { var i = 0; while (i < 10) { i = i + 1; } print(i); }",
	"func main() { var p = alloc(4); p[0] = 7; print(p[0]); }",
	"func main() { print(input()); }",
	"func main() { if (1 ==",
	"func main() { var x = ((((1)))); }",
	"var", "func", "{}", ";;;", "0",
	"func main() { break; }",
	"func main() { print(1/0); }",
	"func main(x) { }",
	"func f() {} func f() {} func main() {}",
	// A syntax error before a lexical error: the lexical error wins.
	"func main() { 1 @",
	"func main() { print(1) } /* never closed",
	"func main() { } @",
}

// FuzzParse throws arbitrary bytes at the MiniC front end. The parser and
// checker consume untrusted source: any input may be rejected with an
// error, none may panic. (Fault isolation for the front end is this plus
// the recover at the public Compile boundary.) Parse streams its tokens, so
// it also checks that a lexical error anywhere in the source wins: where
// LexAll fails, Parse fails with the identical text.
func FuzzParse(f *testing.F) {
	for _, s := range FuzzParseSeeds {
		f.Add(s)
	}
	// One level of statement nesting past the bound: an error, not a
	// recursion per level. (Kept out of FuzzParseSeeds, whose compiled
	// form TestCompileGolden pins.)
	f.Add(nestedIfs(maxStmtDepth + 1))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := Parse(src)
		if _, lexErr := LexAll(src); lexErr != nil {
			if err == nil || err.Error() != lexErr.Error() {
				t.Fatalf("LexAll fails with %q, Parse with %v", lexErr, err)
			}
		}
		if err != nil {
			return
		}
		// Parsed successfully: the checker must also finish without
		// panicking, whatever it decides.
		_, _ = Check(prog)
	})
}
