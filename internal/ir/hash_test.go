package ir_test

import (
	"testing"

	"icbe"
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

func TestHashStableAcrossRecompiles(t *testing.T) {
	for _, w := range progs.All() {
		a := ir.HashProgram(compileT(t, w.Source))
		b := ir.HashProgram(compileT(t, w.Source))
		if a.Sum != b.Sum {
			t.Errorf("%s: recompiling the same source changed the program hash", w.Name)
		}
	}
}

// TestHashPinnedSums pins the program hash of the seven paper programs. The
// sum is the content half of every result-store key, so a change here
// orphans every on-disk result entry written before it: change the pins only
// together with a deliberate key version bump.
func TestHashPinnedSums(t *testing.T) {
	want := map[string]string{
		"stdio":      "9f88d0339e35c1506b83ea4cfeff022edd8e4cdd064f78727262503aedd83efc",
		"compress":   "7305df61efec38086022de053c67ce5431ba38b693fec7793883c4f3e6ef8350",
		"lisp":       "e6d3100299164c75ab2b3674faf8d789f910b729f2888651a8703ed164ab2e01",
		"m88k":       "18206d2a66e03b96fbaf84043f02de497630612714542c92dab6a891cbca3ff2",
		"goboard":    "eefc2d83ccd5806fd82529180ccdb27276f18bdbc6436b5a91698606207465f1",
		"scanner":    "cf294383fde9b734ed2464266b4eb34db955a78549f8362c9575df378ba91702",
		"oodispatch": "be456acd9c0694dbb60f4e4965dbeffa594597f34c69286448667544cd7091e6",
	}
	all := progs.All()
	if len(all) != len(want) {
		t.Fatalf("%d paper programs, %d pins", len(all), len(want))
	}
	for _, w := range all {
		if got := ir.HashProgram(compileT(t, w.Source)).Sum.Hex(); got != want[w.Name] {
			t.Errorf("%s: program hash %s, pinned %s", w.Name, got, want[w.Name])
		}
	}
}

func TestHashIgnoresNamesAndLayout(t *testing.T) {
	base := `
var g;
func f(x) {
	if (x < 10) { return 1; }
	return 0;
}
func main() {
	var a = input();
	var r = f(a);
	print(r);
	return 0;
}
`
	// Same program with the procedure and locals renamed and extra blank
	// lines shifting every source line.
	renamed := `
var g;

func check(value) {

	if (value < 10) { return 1; }
	return 0;
}

func main() {
	var tmp = input();

	var res = check(tmp);
	print(res);
	return 0;
}
`
	a := ir.HashProgram(compileT(t, base))
	b := ir.HashProgram(compileT(t, renamed))
	if a.Sum != b.Sum {
		t.Errorf("renaming procedures/locals and shifting lines changed the canonical hash")
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := `
func main() {
	var a = input();
	if (a < 10) { print(1); }
	return 0;
}
`
	changedConst := `
func main() {
	var a = input();
	if (a < 11) { print(1); }
	return 0;
}
`
	flippedArms := `
func main() {
	var a = input();
	if (a < 10) { } else { print(1); }
	return 0;
}
`
	h := func(src string) ir.Sum { return ir.HashProgram(compileT(t, src)).Sum }
	if h(base) == h(changedConst) {
		t.Errorf("changing a branch constant did not change the hash")
	}
	if h(base) == h(flippedArms) {
		t.Errorf("swapping branch arms did not change the hash")
	}
}

func TestHashGlobalRenameChangesSum(t *testing.T) {
	a := compileT(t, `
var g;
func main() { g = input(); print(g); return 0; }
`)
	b := compileT(t, `
var h;
func main() { h = input(); print(h); return 0; }
`)
	if ir.HashProgram(a).Sum == ir.HashProgram(b).Sum {
		t.Errorf("renaming a global did not change the hash (globals are program identity)")
	}
}

// TestHashRecursionTerminates hashes mutually recursive procedures, whose
// closures are a fixpoint through the call cycle. odd and even have distinct
// bodies (return 0 vs 1), so their closures must differ even though their
// call structure is symmetric — which shows in the program sum as main
// calling one or the other.
func TestHashRecursionTerminates(t *testing.T) {
	const procs = `
func odd(n) {
	if (n == 0) { return 0; }
	var r = even(n - 1);
	return r;
}
func even(n) {
	if (n == 0) { return 1; }
	var r = odd(n - 1);
	return r;
}
`
	main := func(callee string) string {
		return procs + "func main() {\n\tvar x = input();\n\tvar r = " + callee + "(x);\n\tprint(r);\n\treturn 0;\n}\n"
	}
	g := compileT(t, main("even"))
	if ir.HashProgram(g).Sum != ir.HashProgram(g).Sum {
		t.Errorf("recursive program hash not deterministic")
	}
	if ir.HashProgram(g).Sum == ir.HashProgram(compileT(t, main("odd"))).Sum {
		t.Errorf("mutually recursive procs with distinct bodies share a closure hash")
	}
}
