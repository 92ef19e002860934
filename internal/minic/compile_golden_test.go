package minic_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/minic"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

var update = flag.Bool("update", false, "rewrite testdata/compile.golden")

const compileGolden = "testdata/compile.golden"

// TestCompileGolden pins what the front end makes of a fixed set of
// sources: the SHA-256 of ir.EncodeProgram(ir.Build(src)) for the paper
// programs, the examples' sources and the benchmark's `recursion` and
// `scale-cold` shapes (seeds 1–8), and the error text of every FuzzParse
// seed and corpus entry that fails to compile. A change to the lexer,
// parser, checker or lowering that moves one byte of output, or one
// character of an error, fails here.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range compileCases(t) {
		fmt.Fprintf(&b, "%s\t", c.name)
		p, err := ir.Build(c.src)
		if err != nil {
			fmt.Fprintf(&b, "error %q\n", err.Error())
			continue
		}
		fmt.Fprintf(&b, "sha256 %x\n", ir.HashProgram(p))
	}
	got := []byte(b.String())
	if *update {
		if err := os.WriteFile(compileGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(compileGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

type compileCase struct{ name, src string }

func compileCases(t *testing.T) []compileCase {
	var cs []compileCase
	for _, w := range progs.All() {
		cs = append(cs, compileCase{"paper/" + w.Name, w.Source})
	}
	cs = append(cs, exampleSources(t)...)
	rec := randprog.RecConfig{Chains: 4, ChainLen: 4, Depth: 40, BodyStmts: 60, Globals: 3}
	scale := randprog.ScaleConfig{Leaves: 20, LeafStmts: 80, Hubs: 6}
	for seed := uint64(1); seed <= 8; seed++ {
		cs = append(cs, compileCase{fmt.Sprintf("recursion/%d", seed), randprog.Recursion(seed, rec)})
	}
	for seed := uint64(1); seed <= 8; seed++ {
		cs = append(cs, compileCase{fmt.Sprintf("scale-cold/%d", seed), randprog.Scale(seed, scale)})
	}
	for i, s := range minic.FuzzParseSeeds {
		cs = append(cs, compileCase{fmt.Sprintf("fuzz-seed/%d", i), s})
	}
	return append(cs, fuzzCorpus(t)...)
}

// exampleSources returns the MiniC program each examples/*/main.go holds in
// its `src` constant.
func exampleSources(t *testing.T) []compileCase {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	sort.Strings(files)
	var cs []compileCase
	for _, f := range files {
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var src string
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "src" || len(vs.Values) != 1 {
				return true
			}
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				src, err = strconv.Unquote(lit.Value)
			}
			return false
		})
		if err != nil || src == "" {
			t.Fatalf("%s: no `src` string constant (%v)", f, err)
		}
		cs = append(cs, compileCase{"example/" + filepath.Base(filepath.Dir(f)), src})
	}
	return cs
}

// fuzzCorpus returns FuzzParse's committed corpus entries.
func fuzzCorpus(t *testing.T) []compileCase {
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var cs []compileCase
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: not a one-string corpus entry", f)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cs = append(cs, compileCase{"fuzz-corpus/" + filepath.Base(f), src})
	}
	return cs
}
