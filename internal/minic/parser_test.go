package minic

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"icbe/internal/pred"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v", err)
	}
	return prog
}

func TestParseGlobalsAndProc(t *testing.T) {
	prog := mustParse(t, `
		var g;
		var h = 7;
		var neg = -3;
		func main() { return; }
	`)
	if len(prog.Globals) != 3 {
		t.Fatalf("globals = %d, want 3", len(prog.Globals))
	}
	if prog.Globals[0].HasInit {
		t.Error("g should have no initializer")
	}
	if !prog.Globals[1].HasInit || prog.Globals[1].Init != 7 {
		t.Errorf("h init = %v %d", prog.Globals[1].HasInit, prog.Globals[1].Init)
	}
	if prog.Globals[2].Init != -3 {
		t.Errorf("neg init = %d, want -3", prog.Globals[2].Init)
	}
	if len(prog.Procs) != 1 || prog.Procs[0].Name != "main" {
		t.Fatalf("procs = %v", prog.Procs)
	}
}

func TestParseIfElseChain(t *testing.T) {
	prog := mustParse(t, `
		func main() {
			var x = 1;
			if (x == 0) { x = 1; }
			else if (x < 5) { x = 2; }
			else { x = 3; }
		}
	`)
	body := prog.Procs[0].Body.Stmts
	ifs, ok := body[1].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T", body[1])
	}
	if ifs.Cond.Op != pred.Eq {
		t.Errorf("first cond op = %v", ifs.Cond.Op)
	}
	elif, ok := ifs.Else.(*IfStmt)
	if !ok {
		t.Fatalf("else is %T, want *IfStmt", ifs.Else)
	}
	if elif.Cond.Op != pred.Lt {
		t.Errorf("elif cond op = %v", elif.Cond.Op)
	}
	blk, ok := ElseBlock(elif.Else)
	if !ok || len(blk.Stmts) != 1 {
		t.Fatalf("final else not a plain block: %T", elif.Else)
	}
}

func TestParseBareCondition(t *testing.T) {
	prog := mustParse(t, `func main() { var x = 1; while (x) { x = x - 1; } }`)
	w := prog.Procs[0].Body.Stmts[1].(*WhileStmt)
	if w.Cond.Op != pred.Ne {
		t.Errorf("bare cond op = %v, want !=", w.Cond.Op)
	}
	rhs, ok := w.Cond.Rhs.(*NumLit)
	if !ok || rhs.Val != 0 {
		t.Errorf("bare cond rhs = %#v, want 0", w.Cond.Rhs)
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustParse(t, `func main() { var x = 1 + 2 * 3 - 4 / 2; }`)
	d := prog.Procs[0].Body.Stmts[0].(*VarDecl)
	// Expect ((1 + (2*3)) - (4/2))
	top, ok := d.Init.(*BinExpr)
	if !ok || top.Op != OpSub {
		t.Fatalf("top = %#v", d.Init)
	}
	l, ok := top.L.(*BinExpr)
	if !ok || l.Op != OpAdd {
		t.Fatalf("left = %#v", top.L)
	}
	lr, ok := l.R.(*BinExpr)
	if !ok || lr.Op != OpMul {
		t.Fatalf("left.right = %#v", l.R)
	}
	r, ok := top.R.(*BinExpr)
	if !ok || r.Op != OpDiv {
		t.Fatalf("right = %#v", top.R)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	prog := mustParse(t, `func main() { var x = (1 + 2) * 3; }`)
	d := prog.Procs[0].Body.Stmts[0].(*VarDecl)
	top, ok := d.Init.(*BinExpr)
	if !ok || top.Op != OpMul {
		t.Fatalf("top = %#v", d.Init)
	}
	if l, ok := top.L.(*BinExpr); !ok || l.Op != OpAdd {
		t.Fatalf("left = %#v", top.L)
	}
}

func TestParseNegation(t *testing.T) {
	prog := mustParse(t, `func main() { var a = -5; var b = -a; }`)
	a := prog.Procs[0].Body.Stmts[0].(*VarDecl)
	if n, ok := a.Init.(*NumLit); !ok || n.Val != -5 {
		t.Errorf("-5 folded to %#v", a.Init)
	}
	b := prog.Procs[0].Body.Stmts[1].(*VarDecl)
	if _, ok := b.Init.(*NegExpr); !ok {
		t.Errorf("-a parsed to %#v", b.Init)
	}
}

func TestParseCallsLoadsStores(t *testing.T) {
	prog := mustParse(t, `
		func get(p, i) { return p[i]; }
		func main() {
			var p = alloc(4);
			p[0] = 10;
			p[1 + 2] = get(p, 0);
			get(p, 1);
			var c = byte(input());
			print(c);
		}
	`)
	body := prog.Procs[1].Body.Stmts
	if _, ok := body[1].(*StoreStmt); !ok {
		t.Errorf("stmt 1 = %T, want store", body[1])
	}
	st := body[2].(*StoreStmt)
	if _, ok := st.Value.(*CallExpr); !ok {
		t.Errorf("store value = %T, want call", st.Value)
	}
	if _, ok := body[3].(*CallStmt); !ok {
		t.Errorf("stmt 3 = %T, want call stmt", body[3])
	}
	decl := body[4].(*VarDecl)
	outer, ok := decl.Init.(*CallExpr)
	if !ok || outer.Name != "byte" {
		t.Fatalf("byte call = %#v", decl.Init)
	}
	if inner, ok := outer.Args[0].(*CallExpr); !ok || inner.Name != "input" {
		t.Errorf("nested input call = %#v", outer.Args[0])
	}
	ret := prog.Procs[0].Body.Stmts[0].(*ReturnStmt)
	if _, ok := ret.Value.(*IndexExpr); !ok {
		t.Errorf("return value = %T, want index", ret.Value)
	}
}

func TestParseBreakContinue(t *testing.T) {
	prog := mustParse(t, `func main() { while (1) { break; continue; } }`)
	w := prog.Procs[0].Body.Stmts[0].(*WhileStmt)
	if _, ok := w.Body.Stmts[0].(*BreakStmt); !ok {
		t.Error("break not parsed")
	}
	if _, ok := w.Body.Stmts[1].(*ContinueStmt); !ok {
		t.Error("continue not parsed")
	}
}

func TestParseCharInExpr(t *testing.T) {
	prog := mustParse(t, `func main() { var c = input(); if (c == 'a') { print(c); } }`)
	ifs := prog.Procs[0].Body.Stmts[1].(*IfStmt)
	rhs := ifs.Cond.Rhs.(*NumLit)
	if rhs.Val != 'a' {
		t.Errorf("char rhs = %d, want %d", rhs.Val, 'a')
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"var", "expected identifier"},
		{"var x", "expected ';'"},
		{"var x = y;", "global initializer must be a constant"},
		{"func", "expected identifier"},
		{"func f() { if x { } }", "expected '('"},
		{"func f() { x; }", "expected '=', '[' or '('"},
		{"func f() { return 1 }", "expected ';'"},
		{"func f() { var x = ; }", "expected expression"},
		{"blah", "expected 'var' or 'func'"},
		{"func f() { ", "unexpected end of input"},
		{"func f(a b) {}", "expected ')'"},
		{"func f() { x = f(1,; }", "expected expression"},
		{"func f() { p[1 = 2; }", "expected ']'"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error = %q, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

// TestLexErrorWinsOverSyntaxError pins the error precedence of the
// streaming parser: a lexical error anywhere in the source is reported
// instead of a syntax error that comes before it.
func TestLexErrorWinsOverSyntaxError(t *testing.T) {
	cases := []struct{ src, want string }{
		{"func main() { 1 @", "1:17: unexpected character '@'"},
		{"func main() { print(1) } /* never closed", "1:26: unterminated block comment"},
		{"func main() { } @", "1:17: unexpected character '@'"},
		{"var x\n'", "2:1: unterminated character literal"},
		{"func main() { x; }\n// fine\n123abc", "3:1: malformed number: identifier character 'a' after digits"},
		// Only the first lexical error counts.
		{"func f( { @ 'ab'", "1:11: unexpected character '@'"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("func f() {\n  var x = ;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "2:") {
		t.Errorf("error position = %q, want line 2", err.Error())
	}
}

// TestParserNeverPanics fuzzes the front end with mutated program text:
// any input must either parse or return an error, never panic.
func TestParserNeverPanics(t *testing.T) {
	base := `
		var g = 1;
		func f(a, b) { if (a < b) { return a; } return b; }
		func main() { var x = f(g, input()); while (x > 0) { x = x - 1; } print(x); }
	`
	f := func(pos uint16, repl byte) bool {
		b := []byte(base)
		b[int(pos)%len(b)] = repl
		prog, err := Parse(string(b))
		if err == nil && prog == nil {
			return false
		}
		if err == nil {
			_, cerr := Check(prog)
			_ = cerr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParserTruncationsNeverPanic parses every prefix of a valid program.
func TestParserTruncationsNeverPanic(t *testing.T) {
	src := `
		var g = 7;
		func helper(p) { if (p == 0) { return -1; } return p[0]; }
		func main() {
			var q = alloc(3);
			q[0] = 'x';
			print(helper(q));
		}
	`
	for i := 0; i <= len(src); i++ {
		prog, err := Parse(src[:i])
		if err == nil && prog != nil {
			_, _ = Check(prog)
		}
	}
}

// nestedParens returns a program printing 1 inside n pairs of parentheses:
// the print's expression nests n+1 deep.
func nestedParens(n int) string {
	return "func main() { print(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "); }"
}

// sumChain returns a program printing x+x+…+x with n terms: a left-deep
// tree of height n.
func sumChain(n int) string {
	return "func main() { var x = 1; print(x" + strings.Repeat("+x", n-1) + "); }"
}

// TestParseBoundsNesting pins maxExprDepth: expressions nested exactly to
// the bound parse and check, one level deeper fails with a positional
// error, and so do sources of 2^19 levels, which without the bound cost
// the parser, checker and lowering hundreds of MB of stack.
func TestParseBoundsNesting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape func(int) string
		limit int
	}{
		{"parentheses", nestedParens, maxExprDepth - 1},
		{"left-deep sum", sumChain, maxExprDepth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Check(mustParse(t, tc.shape(tc.limit))); err != nil {
				t.Fatalf("at the limit: Check: %v", err)
			}
			for _, n := range []int{tc.limit + 1, 1 << 19} {
				_, err := Parse(tc.shape(n))
				if err == nil || !strings.Contains(err.Error(), "expression nested too deeply") {
					t.Fatalf("%d levels: err = %v, want the nesting error", n, err)
				}
				if !strings.HasPrefix(err.Error(), "1:") {
					t.Errorf("%d levels: error %q has no line:column position", n, err)
				}
			}
		})
	}
}

// nestedIfs returns a program whose main nests n if statements.
func nestedIfs(n int) string {
	return "func main() { var x = input(); " + strings.Repeat("if (x) { ", n) + "print(1); " +
		strings.Repeat("} ", n) + "}"
}

// elseIfChain returns a program whose main holds an if with n-1 else ifs:
// each else if nests one level inside the statement before it.
func elseIfChain(n int) string {
	return "func main() { var x = input(); if (x == 0) { print(0); }" +
		strings.Repeat(" else if (x == 1) { print(1); }", n-1) + " }"
}

// nestedWhiles returns a program whose main nests n while statements.
func nestedWhiles(n int) string {
	return "func main() { var x = input(); " + strings.Repeat("while (x) { ", n) + "x = 0; " +
		strings.Repeat("} ", n) + "}"
}

// TestParseBoundsStatementNesting pins maxStmtDepth: statements nested
// exactly to the bound parse and check, and one level deeper fails with a
// positional error at the keyword that opens the extra level. So does a
// source of 2^16 nested ifs (721 KB, under the server's 1 MiB body cap),
// which without the bound raised a process's peak memory from 2 MB to
// 137 MB; with it the parse stops at the bound, in milliseconds.
func TestParseBoundsStatementNesting(t *testing.T) {
	const prefix = len("func main() { var x = input(); ")
	for _, tc := range []struct {
		name  string
		shape func(int) string
		// col is the column of the keyword opening level n.
		col func(n int) int
	}{
		{"if", nestedIfs, func(n int) int { return prefix + len("if (x) { ")*(n-1) + 1 }},
		{"else if", elseIfChain, func(n int) int {
			return prefix + len("if (x == 0) { print(0); }") + len(" else if (x == 1) { print(1); }")*(n-2) + len(" else ") + 1
		}},
		{"while", nestedWhiles, func(n int) int { return prefix + len("while (x) { ")*(n-1) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Check(mustParse(t, tc.shape(maxStmtDepth))); err != nil {
				t.Fatalf("at the limit: Check: %v", err)
			}
			for _, n := range []int{maxStmtDepth + 1, 1 << 16} {
				start := time.Now()
				_, err := Parse(tc.shape(n))
				if d := time.Since(start); d > time.Second {
					t.Errorf("%d levels: Parse took %v", n, d)
				}
				if err == nil || !strings.Contains(err.Error(), "statements nested too deeply") {
					t.Fatalf("%d levels: err = %v, want the nesting error", n, err)
				}
				if want := fmt.Sprintf("1:%d: ", tc.col(maxStmtDepth+1)); !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%d levels: error %q, want it at %s", n, err, want)
				}
			}
		})
	}
}
