package minic

import (
	"strings"
	"testing"
)

func mustCheck(t *testing.T, src string) (*Program, *Info) {
	t.Helper()
	prog := mustParse(t, src)
	info, err := Check(prog)
	if err != nil {
		t.Fatalf("Check failed: %v", err)
	}
	return prog, info
}

func TestCheckResolvesScopes(t *testing.T) {
	prog, _ := mustCheck(t, `
		var g = 1;
		func f(a) {
			var x = a + g;
			if (x > 0) {
				var x = 2;
				x = x + 1;
			}
			return x;
		}
		func main() { var r = f(3); print(r); }
	`)
	f := prog.Procs[0]
	// Outer x and inner x are distinct symbols.
	outerDecl := f.Body.Stmts[0].(*VarDecl)
	ifs := f.Body.Stmts[1].(*IfStmt)
	innerDecl := ifs.Then.Stmts[0].(*VarDecl)
	outerSym := outerDecl.Sym
	innerSym := innerDecl.Sym
	if outerSym == innerSym {
		t.Error("shadowed locals resolved to the same symbol")
	}
	// Assignment inside the if refers to the inner x.
	asgn := ifs.Then.Stmts[1].(*AssignStmt)
	if asgn.Sym != innerSym {
		t.Error("assignment in inner scope did not resolve to inner symbol")
	}
	// Return refers to the outer x.
	ret := f.Body.Stmts[2].(*ReturnStmt)
	if ret.Value.(*VarRef).Sym != outerSym {
		t.Error("return did not resolve to outer symbol")
	}
	// g resolves to a global.
	add := outerDecl.Init.(*BinExpr)
	gSym := add.R.(*VarRef).Sym
	if gSym.Kind != SymGlobal {
		t.Errorf("g resolved to %v", gSym.Kind)
	}
	// a resolves to the parameter.
	aSym := add.L.(*VarRef).Sym
	if aSym.Kind != SymParam {
		t.Errorf("a resolved to %v", aSym.Kind)
	}
}

func TestCheckLocalShadowsGlobal(t *testing.T) {
	prog, _ := mustCheck(t, `
		var x = 1;
		func main() {
			var x = 2;
			print(x);
		}
	`)
	pr := prog.Procs[0].Body.Stmts[1].(*PrintStmt)
	sym := pr.Value.(*VarRef).Sym
	if sym.Kind != SymLocal {
		t.Errorf("x resolved to %v, want local", sym.Kind)
	}
}

func TestCheckVarInitUsesOuterScope(t *testing.T) {
	// `var x = x;` must refer to the outer x, not the new one.
	prog, _ := mustCheck(t, `
		var x = 5;
		func main() {
			var x = x;
			print(x);
		}
	`)
	decl := prog.Procs[0].Body.Stmts[0].(*VarDecl)
	initSym := decl.Init.(*VarRef).Sym
	if initSym.Kind != SymGlobal {
		t.Errorf("initializer x resolved to %v, want global", initSym.Kind)
	}
}

func TestCheckProcIndices(t *testing.T) {
	_, info := mustCheck(t, `
		func a() {}
		func b() {}
		func main() { a(); b(); }
	`)
	if info.ProcIdx["a"] != 0 || info.ProcIdx["b"] != 1 || info.ProcIdx["main"] != 2 {
		t.Errorf("ProcIdx = %v", info.ProcIdx)
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`func f() {}`, "no 'main'"},
		{`func main(a) {}`, "'main' must take no parameters"},
		{`func main() { x = 1; }`, "undeclared variable"},
		{`func main() { var y = x; }`, "undeclared variable"},
		{`var g; var g; func main() {}`, "duplicate global"},
		{`func f() {} func f() {} func main() {}`, "duplicate procedure"},
		{`var f; func f() {} func main() {}`, "conflicts with a global"},
		{`func main() { var a; var a; }`, "duplicate declaration"},
		{`func main(){ f(); }`, "undefined procedure"},
		{`func f(a) { return a; } func main() { f(); }`, "takes 1 arguments, got 0"},
		{`func main() { break; }`, "'break' outside loop"},
		{`func main() { continue; }`, "'continue' outside loop"},
		{`func main() { main(); }`, "'main' cannot be called"},
		{`func main() { var x = alloc(1, 2); }`, "alloc takes 1 argument"},
		{`func main() { var x = byte(); }`, "byte takes 1 argument"},
		{`func main() { var x = input(5); }`, "input takes no arguments"},
		{`var alloc; func main() {}`, "name is a builtin"},
		{`func byte() {} func main() {}`, "name is a builtin"},
		{`func main() { var input = 3; }`, "name is a builtin"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", tc.src, err)
			continue
		}
		_, err = Check(prog)
		if err == nil {
			t.Errorf("Check(%q) succeeded, want error %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Check(%q) error = %q, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestCheckSiblingScopesDontConflict(t *testing.T) {
	mustCheck(t, `
		func main() {
			if (1) { var t = 1; print(t); } else { var t = 2; print(t); }
			while (0) { var t = 3; print(t); }
		}
	`)
}

func TestCheckParamsAndLocalsListed(t *testing.T) {
	_, info := mustCheck(t, `
		func f(a, b) { var c; return a + b + c; }
		func main() { var r = f(1, 2); print(r); }
	`)
	syms := info.ProcSyms[0]
	if len(syms) != 3 {
		t.Fatalf("proc symbols = %d, want 3", len(syms))
	}
	if syms[0].Kind != SymParam || syms[1].Kind != SymParam || syms[2].Kind != SymLocal {
		t.Errorf("symbol kinds = %v %v %v", syms[0].Kind, syms[1].Kind, syms[2].Kind)
	}
}

// TestCheckNumbersSymbolsDensely checks that symbol IDs run 0..NumSyms-1 in
// declaration order, globals first, and that every name resolves to the
// symbol of its declaration.
func TestCheckNumbersSymbolsDensely(t *testing.T) {
	prog, info := mustCheck(t, `
		var g; var h = 2;
		func f(a) { var p = alloc(a); p[0] = g; if (a) { var q = p[0]; h = q; } return a; }
		func main() { var r = f(1); print(r); }
	`)
	var all []*Symbol
	all = append(all, info.GlobalSyms...)
	for _, ps := range info.ProcSyms {
		all = append(all, ps...)
	}
	if len(all) != info.NumSyms {
		t.Fatalf("%d symbols listed, NumSyms = %d", len(all), info.NumSyms)
	}
	for i, s := range all {
		if s.ID != i {
			t.Errorf("symbol %q has ID %d, want %d", s.Name, s.ID, i)
		}
	}
	body := prog.Procs[0].Body.Stmts
	p := body[0].(*VarDecl).Sym
	if st := body[1].(*StoreStmt); st.Sym != p || st.Value.(*VarRef).Sym != info.GlobalSyms[0] {
		t.Error("store did not resolve to p and g")
	}
	then := body[2].(*IfStmt).Then.Stmts
	q := then[0].(*VarDecl)
	if q.Init.(*IndexExpr).Sym != p {
		t.Error("load did not resolve to p")
	}
	if asg := then[1].(*AssignStmt); asg.Sym != info.GlobalSyms[1] || asg.Value.(*VarRef).Sym != q.Sym {
		t.Error("h = q did not resolve to h and q")
	}
}

func TestSymKindString(t *testing.T) {
	if SymGlobal.String() != "global" || SymParam.String() != "param" || SymLocal.String() != "local" {
		t.Error("SymKind strings wrong")
	}
	if !strings.Contains(SymKind(9).String(), "9") {
		t.Error("unknown SymKind string")
	}
}
