package minic

import (
	"strconv"
)

// Lexer turns MiniC source text into a token stream. It tracks line/column
// positions and reports malformed input through *Error values.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: int32(lx.line), Col: int32(lx.col)} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// skipSpace consumes whitespace and comments; it returns an error for an
// unterminated block comment.
func (lx *Lexer) skipSpace() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			// Batch non-newline whitespace runs: bump the column once.
			end := lx.off
			for end < len(lx.src) {
				if b := lx.src[end]; b != ' ' && b != '\t' && b != '\r' {
					break
				}
				end++
			}
			lx.col += end - lx.off
			lx.off = end
		case c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token, or an error for malformed input. At end of
// input it returns a TokEOF token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		// Identifiers contain no newlines, so scan the run directly and
		// bump the column once instead of per character.
		start := lx.off
		end := start
		for end < len(lx.src) && isIdentCont(lx.src[end]) {
			end++
		}
		lx.col += end - lx.off
		lx.off = end
		text := lx.src[start:end]
		return Token{Kind: keyword(text), Text: text, Pos: pos}, nil

	case isDigit(c):
		start := lx.off
		end := start
		for end < len(lx.src) && isDigit(lx.src[end]) {
			end++
		}
		lx.col += end - lx.off
		lx.off = end
		if lx.off < len(lx.src) && isIdentStart(lx.peek()) {
			return Token{}, errf(pos, "malformed number: identifier character %q after digits", lx.peek())
		}
		text := lx.src[start:lx.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, errf(pos, "number %s out of range", text)
		}
		return Token{Kind: TokNumber, Text: text, Val: v, Pos: pos}, nil

	case c == '\'':
		lx.advance()
		if lx.off >= len(lx.src) {
			return Token{}, errf(pos, "unterminated character literal")
		}
		ch := lx.advance()
		if ch == '\\' {
			if lx.off >= len(lx.src) {
				return Token{}, errf(pos, "unterminated character literal")
			}
			esc := lx.advance()
			switch esc {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case 'r':
				ch = '\r'
			case '0':
				ch = 0
			case '\\':
				ch = '\\'
			case '\'':
				ch = '\''
			default:
				return Token{}, errf(pos, "unknown escape sequence '\\%c'", esc)
			}
		}
		if lx.off >= len(lx.src) || lx.peek() != '\'' {
			return Token{}, errf(pos, "unterminated character literal")
		}
		lx.advance()
		return Token{Kind: TokChar, Text: string(ch), Val: int64(ch), Pos: pos}, nil
	}

	lx.advance()
	two := func(second byte, with, without TokKind) (Token, error) {
		if lx.off < len(lx.src) && lx.peek() == second {
			lx.advance()
			return Token{Kind: with, Pos: pos}, nil
		}
		return Token{Kind: without, Pos: pos}, nil
	}
	switch c {
	case '(':
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: pos}, nil
	case '{':
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case '[':
		return Token{Kind: TokLBracket, Pos: pos}, nil
	case ']':
		return Token{Kind: TokRBracket, Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Pos: pos}, nil
	case ';':
		return Token{Kind: TokSemi, Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Pos: pos}, nil
	case '*':
		return Token{Kind: TokStar, Pos: pos}, nil
	case '/':
		return Token{Kind: TokSlash, Pos: pos}, nil
	case '%':
		return Token{Kind: TokPercent, Pos: pos}, nil
	case '=':
		return two('=', TokEq, TokAssign)
	case '!':
		tok, err := two('=', TokNe, TokEOF)
		if err == nil && tok.Kind == TokEOF {
			return Token{}, errf(pos, "unexpected character '!'")
		}
		return tok, err
	case '<':
		return two('=', TokLe, TokLt)
	case '>':
		return two('=', TokGe, TokGt)
	}
	return Token{}, errf(pos, "unexpected character %q", c)
}

// LexAll tokenizes the entire source, returning the tokens including the
// trailing EOF token. Parse does not use it (it streams from Next); it
// serves token counts and tests.
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Generated MiniC averages 2.1–2.2 source bytes per token, the paper
	// programs (comments, indentation) 3.2–4.4. Half a token per byte fits
	// both in one allocation.
	toks := make([]Token, 0, len(src)/2+16)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
