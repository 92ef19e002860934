package minic

import (
	"slices"

	"icbe/internal/pred"
)

// Parser is a recursive-descent parser for MiniC. It pulls tokens from its
// lexer one at a time and holds one token of lookahead, so it never builds
// a token slice.
type Parser struct {
	lx     Lexer
	tok    Token  // the lookahead token
	lexErr error  // the first lexical error; tok is then EOF for good
	stmts  []Stmt // the open blocks' statements, innermost last
	// depth counts the expressions and unary minuses being parsed, and
	// height is the height of the expression just parsed; both stay at
	// most maxExprDepth.
	depth, height int
	// nest counts the if and while statements being parsed; it stays at
	// most maxStmtDepth.
	nest int
}

// maxExprDepth bounds how deeply an expression may nest. Two depths count:
// the parentheses and unary minuses the parser descends through, and the
// height of the tree it builds, in which a chain a+b+c+… nests one level
// per operator to the left. The parser, the checker and the lowering
// recurse once per level, so without a bound a source of a few hundred KB
// could cost hundreds of MB of stack.
const maxExprDepth = 1000

// maxStmtDepth bounds how deeply statements may nest: each if, else if and
// while opens a level. The parser, the checker and the lowering recurse
// once per level, so without a bound 2^16 nested ifs (721 KB of source)
// cost over 100 MB of stack.
const maxStmtDepth = 1000

// Parse parses a complete MiniC program from source text.
//
// A lexical error takes precedence over a syntax error wherever the two
// occur, as if the whole source were lexed before parsing: on a syntax
// error Parse lexes the rest of the source and returns its first lexical
// error, if there is one.
func Parse(src string) (*Program, error) {
	p := &Parser{lx: *NewLexer(src)}
	p.advance()
	prog, err := p.parseProgram()
	if err != nil {
		for p.tok.Kind != TokEOF {
			p.advance()
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

// advance lexes the next lookahead token. A lexical error is recorded and
// ends the stream: the lookahead becomes EOF, so the parse unwinds.
func (p *Parser) advance() {
	if p.lexErr != nil {
		return
	}
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TokEOF, Pos: p.lx.pos()}
	}
	p.tok = t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) at(k TokKind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	return p.next(), nil
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokVar:
			g, err := p.parseGlobal()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		case TokFunc:
			fn, err := p.parseProc()
			if err != nil {
				return nil, err
			}
			prog.Procs = append(prog.Procs, fn)
		default:
			return nil, errf(p.cur().Pos, "expected 'var' or 'func' at top level, found %s", p.cur())
		}
	}
	return prog, nil
}

func (p *Parser) parseGlobal() (*Global, error) {
	kw := p.next() // 'var'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	g := &Global{Name: name.Text, Pos: kw.Pos}
	if p.accept(TokAssign) {
		neg := p.accept(TokMinus)
		num := p.cur()
		if num.Kind != TokNumber && num.Kind != TokChar {
			return nil, errf(num.Pos, "global initializer must be a constant, found %s", num)
		}
		p.next()
		g.HasInit = true
		g.Init = num.Val
		if neg {
			g.Init = -g.Init
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *Parser) parseProc() (*Proc, error) {
	kw := p.next() // 'func'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fn := &Proc{Name: name.Text, Pos: kw.Pos}
	if !p.at(TokRParen) {
		for {
			pn, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, Param{Name: pn.Text, Pos: pn.Pos})
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	// The statements collect on the parser's stack, so each block's slice
	// is allocated once, at its final length. (A failed parse is dropped,
	// so only success pops.)
	start := len(p.stmts)
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, errf(p.cur().Pos, "unexpected end of input inside block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	p.next() // '}'
	b := &Block{Stmts: slices.Clone(p.stmts[start:])}
	p.stmts = p.stmts[:start]
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokVar:
		return p.parseVarDecl()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokReturn:
		kw := p.next()
		s := &ReturnStmt{Pos: kw.Pos}
		if !p.at(TokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Value = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return s, nil
	case TokBreak:
		kw := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: kw.Pos}, nil
	case TokContinue:
		kw := p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: kw.Pos}, nil
	case TokPrint:
		kw := p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &PrintStmt{Value: e, Pos: kw.Pos}, nil
	case TokIdent:
		return p.parseSimpleStmt()
	}
	return nil, errf(p.cur().Pos, "expected statement, found %s", p.cur())
}

func (p *Parser) parseVarDecl() (Stmt, error) {
	kw := p.next() // 'var'
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Name: name.Text, Pos: kw.Pos}
	if p.accept(TokAssign) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

// parseSimpleStmt parses statements starting with an identifier:
// assignment, store, or call statement.
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	name := p.next()
	switch p.cur().Kind {
	case TokAssign:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &AssignStmt{Name: name.Text, Value: e, Pos: name.Pos}, nil

	case TokLBracket:
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &StoreStmt{Ptr: name.Text, Index: idx, Value: val, Pos: name.Pos}, nil

	case TokLParen:
		call, err := p.parseCallRest(name)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &CallStmt{Call: call, Pos: name.Pos}, nil
	}
	return nil, errf(p.cur().Pos, "expected '=', '[' or '(' after identifier %q, found %s", name.Text, p.cur())
}

// enterStmt opens a level of statement nesting at pos; the caller closes
// it (p.nest--) once the statement is parsed.
func (p *Parser) enterStmt(pos Pos) error {
	if p.nest++; p.nest > maxStmtDepth {
		return errf(pos, "statements nested too deeply (more than %d levels)", maxStmtDepth)
	}
	return nil
}

func (p *Parser) parseIf() (Stmt, error) {
	kw := p.next() // 'if'
	if err := p.enterStmt(kw.Pos); err != nil {
		return nil, err
	}
	defer func() { p.nest-- }()
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then, Pos: kw.Pos}
	if p.accept(TokElse) {
		if p.at(TokIf) {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = elif
		} else {
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = &elseBlock{blk: blk}
		}
	}
	return s, nil
}

// elseBlock adapts a plain else block to the Stmt interface.
type elseBlock struct{ blk *Block }

func (*elseBlock) stmt() {}

// Position returns the position of the first statement in the block, or a
// zero position for an empty block.
func (e *elseBlock) Position() Pos {
	if len(e.blk.Stmts) > 0 {
		return e.blk.Stmts[0].Position()
	}
	return Pos{}
}

// ElseBlock extracts the block of a plain else branch, if s is one.
func ElseBlock(s Stmt) (*Block, bool) {
	if eb, ok := s.(*elseBlock); ok {
		return eb.blk, true
	}
	return nil, false
}

func (p *Parser) parseWhile() (Stmt, error) {
	kw := p.next() // 'while'
	if err := p.enterStmt(kw.Pos); err != nil {
		return nil, err
	}
	defer func() { p.nest-- }()
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: kw.Pos}, nil
}

func relopOf(k TokKind) (pred.Op, bool) {
	switch k {
	case TokEq:
		return pred.Eq, true
	case TokNe:
		return pred.Ne, true
	case TokLt:
		return pred.Lt, true
	case TokLe:
		return pred.Le, true
	case TokGt:
		return pred.Gt, true
	case TokGe:
		return pred.Ge, true
	}
	return 0, false
}

// parseCond parses a parenthesized condition `(lhs relop rhs)` or `(expr)`
// which is shorthand for `(expr != 0)`.
func (p *Parser) parseCond() (*Cond, error) {
	lp, err := p.expect(TokLParen)
	if err != nil {
		return nil, err
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	c := &Cond{Lhs: lhs, Pos: lp.Pos}
	if op, ok := relopOf(p.cur().Kind); ok {
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Op = op
		c.Rhs = rhs
	} else {
		c.Op = pred.Ne
		c.Rhs = &NumLit{Val: 0, Pos: lp.Pos}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return c, nil
}

// Expression grammar:
//
//	expr    := mulexpr (("+"|"-") mulexpr)*
//	mulexpr := unary (("*"|"/"|"%") unary)*
//	unary   := "-" unary | primary
//	primary := number | char | ident | ident "(" args ")" | ident "[" expr "]" | "(" expr ")"
func (p *Parser) parseExpr() (Expr, error) {
	if p.depth++; p.depth > maxExprDepth {
		return nil, p.tooDeep(p.tok.Pos)
	}
	e, err := p.parseSum()
	p.depth--
	return e, err
}

// tooDeep is the error for an expression nested deeper than maxExprDepth.
func (p *Parser) tooDeep(pos Pos) error {
	return errf(pos, "expression nested too deeply (more than %d levels)", maxExprDepth)
}

// binary records the height of a binary expression whose left operand has
// height lh and whose right operand was just parsed, checking the bound.
func (p *Parser) binary(lh int, op Token) error {
	if p.height = max(lh, p.height) + 1; p.height > maxExprDepth {
		return p.tooDeep(op.Pos)
	}
	return nil
}

func (p *Parser) parseSum() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return l, nil
		}
		lh, opTok := p.height, p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if err := p.binary(lh, opTok); err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: opTok.Pos}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch p.cur().Kind {
		case TokStar:
			op = OpMul
		case TokSlash:
			op = OpDiv
		case TokPercent:
			op = OpMod
		default:
			return l, nil
		}
		lh, opTok := p.height, p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if err := p.binary(lh, opTok); err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: opTok.Pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.at(TokMinus) {
		minus := p.next()
		if p.depth++; p.depth > maxExprDepth {
			return nil, p.tooDeep(minus.Pos)
		}
		x, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, err
		}
		if n, ok := x.(*NumLit); ok {
			return &NumLit{Val: -n.Val, Pos: minus.Pos}, nil
		}
		if p.height++; p.height > maxExprDepth {
			return nil, p.tooDeep(minus.Pos)
		}
		return &NegExpr{X: x, Pos: minus.Pos}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case TokNumber, TokChar:
		t := p.next()
		p.height = 1
		return &NumLit{Val: t.Val, Pos: t.Pos}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		name := p.next()
		switch p.cur().Kind {
		case TokLParen:
			return p.parseCallRest(name)
		case TokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			if p.height++; p.height > maxExprDepth {
				return nil, p.tooDeep(name.Pos)
			}
			return &IndexExpr{Ptr: name.Text, Index: idx, Pos: name.Pos}, nil
		}
		p.height = 1
		return &VarRef{Name: name.Text, Pos: name.Pos}, nil
	}
	return nil, errf(p.cur().Pos, "expected expression, found %s", p.cur())
}

// parseCallRest parses the argument list after `name(`'s identifier; the
// opening parenthesis has not yet been consumed.
func (p *Parser) parseCallRest(name Token) (*CallExpr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	call := &CallExpr{Name: name.Text, Pos: name.Pos}
	h := 0
	if !p.at(TokRParen) {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			call.Args = append(call.Args, a)
			if !p.accept(TokComma) {
				break
			}
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if p.height = h + 1; p.height > maxExprDepth {
		return nil, p.tooDeep(name.Pos)
	}
	return call, nil
}
