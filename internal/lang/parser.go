package lang

import (
	"fmt"
	"strconv"
)

// Parser builds an AST from a token stream using recursive descent with
// Pratt-style operator precedence for expressions. The first syntax
// error unwinds the descent (fail) to Parse, which returns it.
type Parser struct {
	toks []Token
	pos  int
}

// parseError carries a syntax error from fail to Parse.
type parseError struct{ err error }

// Parse parses a complete FaaSLang module.
func Parse(src string) (prog *Program, err error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			prog, err = nil, pe.err
		}
	}()
	p := &Parser{toks: toks}
	prog = &Program{}
	for !p.at(TokenEOF) {
		prog.Stmts = append(prog.Stmts, p.statement())
	}
	return prog, nil
}

func (p *Parser) fail(format string, args ...any) {
	panic(parseError{fmt.Errorf("lang: "+format, args...)})
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(t TokenType) bool { return p.cur().Type == t }

func (p *Parser) expect(t TokenType) Token {
	if !p.at(t) {
		p.fail("%s: expected %s, found %s %q", p.cur().Pos(), t, p.cur().Type, p.cur().Literal)
	}
	return p.next()
}

// eat consumes an optional token of type t (a statement-terminating
// semicolon, a list's comma) and reports whether it was there.
func (p *Parser) eat(t TokenType) bool {
	if p.at(t) {
		p.next()
		return true
	}
	return false
}

// ---- Statements ----

func (p *Parser) statement() Stmt {
	switch tok := p.cur(); tok.Type {
	case TokenAt, TokenFunc:
		return p.funcDecl()
	case TokenLet:
		p.next()
		name := p.expect(TokenIdent).Literal
		p.expect(TokenAssign)
		val := p.expression()
		p.eat(TokenSemi)
		return &LetStmt{base: base{tok}, Name: name, Value: val}
	case TokenIf:
		return p.ifStmt()
	case TokenWhile:
		p.next()
		cond := p.condition()
		return &WhileStmt{base: base{tok}, Cond: cond, Body: p.block()}
	case TokenFor:
		p.next()
		p.expect(TokenLParen)
		name := p.expect(TokenIdent).Literal
		p.expect(TokenIn)
		iter := p.expression()
		p.expect(TokenRParen)
		return &ForInStmt{base: base{tok}, Var: name, Iterable: iter, Body: p.block()}
	case TokenReturn:
		p.next()
		var val Expr
		if !p.at(TokenSemi) && !p.at(TokenRBrace) && !p.at(TokenEOF) {
			val = p.expression()
		}
		p.eat(TokenSemi)
		return &ReturnStmt{base: base{tok}, Value: val}
	case TokenBreak:
		p.next()
		p.eat(TokenSemi)
		return &BreakStmt{base{tok}}
	case TokenContinue:
		p.next()
		p.eat(TokenSemi)
		return &ContinueStmt{base{tok}}
	case TokenLBrace:
		return p.block()
	default:
		return p.simpleStmt()
	}
}

// simpleStmt parses either an assignment (x = e, c[i] = e) or a bare
// expression statement.
func (p *Parser) simpleStmt() Stmt {
	tok := p.cur()
	lhs := p.expression()
	if !p.eat(TokenAssign) {
		p.eat(TokenSemi)
		return &ExprStmt{base: base{tok}, X: lhs}
	}
	switch lhs.(type) {
	case *Ident, *IndexExpr:
	default:
		p.fail("%s: invalid assignment target", tok.Pos())
	}
	rhs := p.expression()
	p.eat(TokenSemi)
	return &AssignStmt{base: base{tok}, Target: lhs, Value: rhs}
}

func (p *Parser) annotations() []Annotation {
	var anns []Annotation
	for p.eat(TokenAt) {
		ann := Annotation{Name: p.expect(TokenIdent).Literal, Args: map[string]string{}}
		if p.eat(TokenLParen) {
			for !p.at(TokenRParen) {
				key := p.expect(TokenIdent).Literal
				p.expect(TokenAssign)
				valTok := p.next()
				switch valTok.Type {
				case TokenTrue, TokenFalse, TokenInt, TokenFloat, TokenString, TokenIdent:
					ann.Args[key] = valTok.Literal
				default:
					p.fail("%s: bad annotation value %q", valTok.Pos(), valTok.Literal)
				}
				p.eat(TokenComma)
			}
			p.expect(TokenRParen)
		}
		anns = append(anns, ann)
	}
	return anns
}

func (p *Parser) funcDecl() Stmt {
	anns := p.annotations()
	tok := p.expect(TokenFunc)
	name := p.expect(TokenIdent).Literal
	params := p.paramList()
	return &FuncDecl{base: base{tok}, Name: name, Params: params, Body: p.block(), Annotations: anns}
}

func (p *Parser) paramList() []string {
	p.expect(TokenLParen)
	var params []string
	for !p.at(TokenRParen) {
		params = append(params, p.expect(TokenIdent).Literal)
		if !p.eat(TokenComma) {
			break
		}
	}
	p.expect(TokenRParen)
	return params
}

// condition parses the parenthesized condition of an if or a while.
func (p *Parser) condition() Expr {
	p.expect(TokenLParen)
	cond := p.expression()
	p.expect(TokenRParen)
	return cond
}

func (p *Parser) ifStmt() Stmt {
	tok := p.next() // if
	cond := p.condition()
	stmt := &IfStmt{base: base{tok}, Cond: cond, Then: p.block()}
	if p.at(TokenElse) {
		elseTok := p.next()
		if p.at(TokenIf) {
			stmt.Else = &Block{base: base{elseTok}, Stmts: []Stmt{p.ifStmt()}}
		} else {
			stmt.Else = p.block()
		}
	}
	return stmt
}

func (p *Parser) block() *Block {
	blk := &Block{base: base{p.expect(TokenLBrace)}}
	for !p.at(TokenRBrace) && !p.at(TokenEOF) {
		blk.Stmts = append(blk.Stmts, p.statement())
	}
	p.expect(TokenRBrace)
	return blk
}

// ---- Expressions (Pratt) ----

// Binding powers, low to high.
const (
	precLowest  = iota
	precOr      // ||
	precAnd     // &&
	precEquals  // == !=
	precCompare // < <= > >=
	precSum     // + -
	precProduct // * / %
	precUnary   // -x !x
	precCall    // f(x) a[i] a.b
)

var precedences = map[TokenType]int{
	TokenOr:       precOr,
	TokenAnd:      precAnd,
	TokenEq:       precEquals,
	TokenNotEq:    precEquals,
	TokenLt:       precCompare,
	TokenLtEq:     precCompare,
	TokenGt:       precCompare,
	TokenGtEq:     precCompare,
	TokenPlus:     precSum,
	TokenMinus:    precSum,
	TokenStar:     precProduct,
	TokenSlash:    precProduct,
	TokenPercent:  precProduct,
	TokenLParen:   precCall,
	TokenLBracket: precCall,
	TokenDot:      precCall,
}

func (p *Parser) expression() Expr { return p.parseExpr(precLowest) }

func (p *Parser) parseExpr(minPrec int) Expr {
	left := p.prefix()
	for {
		prec, ok := precedences[p.cur().Type]
		if !ok || prec <= minPrec {
			return left
		}
		left = p.infix(left)
	}
}

// exprList parses expressions separated by commas up to the closing
// token, which it consumes.
func (p *Parser) exprList(close TokenType) []Expr {
	var list []Expr
	for !p.at(close) {
		list = append(list, p.expression())
		if !p.eat(TokenComma) {
			break
		}
	}
	p.expect(close)
	return list
}

func (p *Parser) prefix() Expr {
	tok := p.next()
	switch tok.Type {
	case TokenIdent:
		return &Ident{base: base{tok}, Name: tok.Literal}
	case TokenInt:
		v, err := strconv.ParseInt(tok.Literal, 10, 64)
		if err != nil {
			p.fail("%s: bad int literal %q: %v", tok.Pos(), tok.Literal, err)
		}
		return &IntLit{base: base{tok}, Value: v}
	case TokenFloat:
		v, err := strconv.ParseFloat(tok.Literal, 64)
		if err != nil {
			p.fail("%s: bad float literal %q: %v", tok.Pos(), tok.Literal, err)
		}
		return &FloatLit{base: base{tok}, Value: v}
	case TokenString:
		return &StringLit{base: base{tok}, Value: tok.Literal}
	case TokenTrue, TokenFalse:
		return &BoolLit{base: base{tok}, Value: tok.Type == TokenTrue}
	case TokenNull:
		return &NullLit{base{tok}}
	case TokenMinus, TokenBang:
		return &UnaryExpr{base: base{tok}, Op: tok.Type, X: p.parseExpr(precUnary)}
	case TokenLParen:
		x := p.expression()
		p.expect(TokenRParen)
		return x
	case TokenLBracket:
		return &ListLit{base: base{tok}, Items: p.exprList(TokenRBracket)}
	case TokenLBrace:
		lit := &MapLit{base: base{tok}}
		for !p.at(TokenRBrace) {
			lit.Keys = append(lit.Keys, p.expression())
			p.expect(TokenColon)
			lit.Values = append(lit.Values, p.expression())
			if !p.eat(TokenComma) {
				break
			}
		}
		p.expect(TokenRBrace)
		return lit
	case TokenFunc:
		params := p.paramList()
		return &FuncLit{base: base{tok}, Params: params, Body: p.block()}
	}
	p.fail("%s: unexpected %s %q in expression", tok.Pos(), tok.Type, tok.Literal)
	return nil
}

func (p *Parser) infix(left Expr) Expr {
	tok := p.next()
	switch tok.Type {
	case TokenLParen:
		return &CallExpr{base: base{tok}, Fn: left, Args: p.exprList(TokenRParen)}
	case TokenLBracket:
		idx := p.expression()
		p.expect(TokenRBracket)
		return &IndexExpr{base: base{tok}, X: left, Index: idx}
	case TokenDot:
		// m.field is sugar for m["field"].
		field := p.expect(TokenIdent)
		return &IndexExpr{base: base{tok}, X: left, Index: &StringLit{base: base{field}, Value: field.Literal}}
	default:
		return &BinaryExpr{base: base{tok}, Op: tok.Type, Left: left, Right: p.parseExpr(precedences[tok.Type])}
	}
}
