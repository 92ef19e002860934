// Package minic implements the front end for MiniC, the small C-like
// language used as the compiler substrate for the ICBE reproduction. MiniC
// has int64-valued variables, procedures with value parameters and a single
// return value, globals, if/while control flow, and heap access through
// builtins (alloc, indexed load/store, byte). The front end produces an AST
// that internal/ir lowers onto the interprocedural control flow graph.
//
// The front end keeps only what it produces. Parse pulls tokens from a
// Lexer one at a time, with one token of lookahead, and builds no token
// slice; a lexical error anywhere in the source still wins over a syntax
// error. Check resolves each name into the AST node that carries it and
// numbers the symbols densely, so a consumer indexes per-symbol state by
// Symbol.ID instead of hashing AST or symbol pointers.
package minic

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokChar // character literal 'a'

	// Keywords.
	TokVar
	TokFunc
	TokIf
	TokElse
	TokWhile
	TokReturn
	TokBreak
	TokContinue
	TokPrint

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokComma
	TokSemi
	TokAssign // =
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokEq // ==
	TokNe // !=
	TokLt // <
	TokLe // <=
	TokGt // >
	TokGe // >=
)

var tokNames = map[TokKind]string{
	TokEOF:      "end of input",
	TokIdent:    "identifier",
	TokNumber:   "number",
	TokChar:     "character literal",
	TokVar:      "'var'",
	TokFunc:     "'func'",
	TokIf:       "'if'",
	TokElse:     "'else'",
	TokWhile:    "'while'",
	TokReturn:   "'return'",
	TokBreak:    "'break'",
	TokContinue: "'continue'",
	TokPrint:    "'print'",
	TokLParen:   "'('",
	TokRParen:   "')'",
	TokLBrace:   "'{'",
	TokRBrace:   "'}'",
	TokLBracket: "'['",
	TokRBracket: "']'",
	TokComma:    "','",
	TokSemi:     "';'",
	TokAssign:   "'='",
	TokPlus:     "'+'",
	TokMinus:    "'-'",
	TokStar:     "'*'",
	TokSlash:    "'/'",
	TokPercent:  "'%'",
	TokEq:       "'=='",
	TokNe:       "'!='",
	TokLt:       "'<'",
	TokLe:       "'<='",
	TokGt:       "'>'",
	TokGe:       "'>='",
}

func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// keyword returns the kind of a keyword, or TokIdent for any other
// identifier. A switch, not a map: it runs once per identifier token.
func keyword(text string) TokKind {
	switch text {
	case "var":
		return TokVar
	case "func":
		return TokFunc
	case "if":
		return TokIf
	case "else":
		return TokElse
	case "while":
		return TokWhile
	case "return":
		return TokReturn
	case "break":
		return TokBreak
	case "continue":
		return TokContinue
	case "print":
		return TokPrint
	}
	return TokIdent
}

// Pos is a source position (1-based line and column). int32 keeps Token
// at 32 bytes (the parser copies one per token).
type Pos struct {
	Line, Col int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token with its source position. Field order is
// size-descending to minimize padding.
type Token struct {
	Text string // identifier text or number literal text
	Val  int64  // value for TokNumber / TokChar
	Pos  Pos
	Kind TokKind
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokNumber:
		return fmt.Sprintf("number %s", t.Text)
	case TokChar:
		return fmt.Sprintf("character %q", rune(t.Val))
	}
	return t.Kind.String()
}

// Error is a front-end diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...interface{}) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
