package lang

import (
	"fmt"
	"strings"
)

// Lexer turns FaaSLang source text into tokens. Comments run from "//"
// or "#" to end of line; both styles appear in the paper's examples
// (Node.js-style and Python-style sources).
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	ch := l.src[l.pos]
	l.pos++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		ch := l.peek()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isLetter(ch byte) bool {
	return ch == '_' || ('a' <= ch && ch <= 'z') || ('A' <= ch && ch <= 'Z')
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Type: TokenEOF, Line: line, Col: col}, nil
	}
	ch := l.peek()

	switch {
	case isLetter(ch):
		start := l.pos
		for l.pos < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		word := l.src[start:l.pos]
		if kw, ok := keywords[word]; ok {
			return Token{Type: kw, Literal: word, Line: line, Col: col}, nil
		}
		return Token{Type: TokenIdent, Literal: word, Line: line, Col: col}, nil

	case isDigit(ch):
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' && isDigit(l.peekAt(1)) {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		lit := l.src[start:l.pos]
		if isFloat {
			return Token{Type: TokenFloat, Literal: lit, Line: line, Col: col}, nil
		}
		return Token{Type: TokenInt, Literal: lit, Line: line, Col: col}, nil

	case ch == '"' || ch == '\'':
		quote := l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("lang: %d:%d: unterminated string", line, col)
			}
			c := l.advance()
			if c == quote {
				break
			}
			if c == '\\' {
				if l.pos >= len(l.src) {
					return Token{}, fmt.Errorf("lang: %d:%d: unterminated escape", line, col)
				}
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '\\', '"', '\'':
					sb.WriteByte(esc)
				default:
					return Token{}, fmt.Errorf("lang: %d:%d: bad escape \\%c", l.line, l.col, esc)
				}
				continue
			}
			sb.WriteByte(c)
		}
		return Token{Type: TokenString, Literal: sb.String(), Line: line, Col: col}, nil
	}

	mk := func(t TokenType, lit string) (Token, error) {
		return Token{Type: t, Literal: lit, Line: line, Col: col}, nil
	}
	two := func(next byte, ifTwo TokenType, litTwo string, ifOne TokenType, litOne string) (Token, error) {
		l.advance()
		if l.peek() == next {
			l.advance()
			return mk(ifTwo, litTwo)
		}
		return mk(ifOne, litOne)
	}

	switch ch {
	case '=':
		return two('=', TokenEq, "==", TokenAssign, "=")
	case '!':
		return two('=', TokenNotEq, "!=", TokenBang, "!")
	case '<':
		return two('=', TokenLtEq, "<=", TokenLt, "<")
	case '>':
		return two('=', TokenGtEq, ">=", TokenGt, ">")
	case '&':
		if l.peekAt(1) == '&' {
			l.advance()
			l.advance()
			return mk(TokenAnd, "&&")
		}
		return Token{}, fmt.Errorf("lang: %d:%d: unexpected '&'", line, col)
	case '|':
		if l.peekAt(1) == '|' {
			l.advance()
			l.advance()
			return mk(TokenOr, "||")
		}
		return Token{}, fmt.Errorf("lang: %d:%d: unexpected '|'", line, col)
	}
	if t, ok := punct[ch]; ok {
		l.advance()
		return mk(t, tokenNames[t])
	}
	return Token{}, fmt.Errorf("lang: %d:%d: unexpected character %q", line, col, ch)
}

// Tokenize lexes the whole input, returning the token stream including a
// trailing EOF token.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Type == TokenEOF {
			return toks, nil
		}
	}
}
