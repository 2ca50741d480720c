// Package lang implements FaaSLang, the small dynamic language that
// simulated serverless functions are written in. It provides the lexer,
// parser, AST, and runtime values; compilation and execution live in
// the lang/vm and lang/jit subpackages.
//
// FaaSLang exists because the paper's core claim — snapshotting a VM
// *after* JIT compilation — needs a runtime in which interpreted and
// JIT-compiled execution are genuinely different execution paths that
// can be profiled, tiered, force-compiled, and de-optimized. The
// language is deliberately small (dynamically typed, first-class
// functions, lists/maps, decorators for @jit annotations) but complete
// enough to express the FaaSdom and ServerlessBench workloads.
package lang

import "fmt"

// TokenType classifies a lexical token.
type TokenType int

// Token types.
const (
	TokenEOF TokenType = iota
	TokenIdent
	TokenInt
	TokenFloat
	TokenString

	// Keywords, TokenFunc through TokenNull.
	TokenFunc
	TokenLet
	TokenIf
	TokenElse
	TokenWhile
	TokenFor
	TokenIn
	TokenReturn
	TokenBreak
	TokenContinue
	TokenTrue
	TokenFalse
	TokenNull

	// Operators and punctuation.
	TokenAssign   // =
	TokenPlus     // +
	TokenMinus    // -
	TokenStar     // *
	TokenSlash    // /
	TokenPercent  // %
	TokenEq       // ==
	TokenNotEq    // !=
	TokenLt       // <
	TokenLtEq     // <=
	TokenGt       // >
	TokenGtEq     // >=
	TokenAnd      // &&
	TokenOr       // ||
	TokenBang     // !
	TokenLParen   // (
	TokenRParen   // )
	TokenLBrace   // {
	TokenRBrace   // }
	TokenLBracket // [
	TokenRBracket // ]
	TokenComma    // ,
	TokenSemi     // ;
	TokenColon    // :
	TokenDot      // .
	TokenAt       // @
)

var tokenNames = map[TokenType]string{
	TokenEOF:      "EOF",
	TokenIdent:    "identifier",
	TokenInt:      "int literal",
	TokenFloat:    "float literal",
	TokenString:   "string literal",
	TokenFunc:     "func",
	TokenLet:      "let",
	TokenIf:       "if",
	TokenElse:     "else",
	TokenWhile:    "while",
	TokenFor:      "for",
	TokenIn:       "in",
	TokenReturn:   "return",
	TokenBreak:    "break",
	TokenContinue: "continue",
	TokenTrue:     "true",
	TokenFalse:    "false",
	TokenNull:     "null",
	TokenAssign:   "=",
	TokenPlus:     "+",
	TokenMinus:    "-",
	TokenStar:     "*",
	TokenSlash:    "/",
	TokenPercent:  "%",
	TokenEq:       "==",
	TokenNotEq:    "!=",
	TokenLt:       "<",
	TokenLtEq:     "<=",
	TokenGt:       ">",
	TokenGtEq:     ">=",
	TokenAnd:      "&&",
	TokenOr:       "||",
	TokenBang:     "!",
	TokenLParen:   "(",
	TokenRParen:   ")",
	TokenLBrace:   "{",
	TokenRBrace:   "}",
	TokenLBracket: "[",
	TokenRBracket: "]",
	TokenComma:    ",",
	TokenSemi:     ";",
	TokenColon:    ":",
	TokenDot:      ".",
	TokenAt:       "@",
}

// String returns a human-readable name for the token type.
func (t TokenType) String() string {
	if s, ok := tokenNames[t]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(t))
}

// keywords maps each keyword's text, as tokenNames spells it, to its
// token.
var keywords = func() map[string]TokenType {
	m := make(map[string]TokenType, TokenNull-TokenFunc+1)
	for t := TokenFunc; t <= TokenNull; t++ {
		m[tokenNames[t]] = t
	}
	return m
}()

// punct maps each one-character operator or punctuation token to its
// type; the lexer reads = ! < > first, as they may start two-character
// tokens.
var punct = func() map[byte]TokenType {
	m := make(map[byte]TokenType)
	for t := TokenAssign; t <= TokenAt; t++ {
		if name := tokenNames[t]; len(name) == 1 {
			m[name[0]] = t
		}
	}
	return m
}()

// Token is one lexical token with its source position.
type Token struct {
	Type    TokenType
	Literal string
	Line    int
	Col     int
}

// Pos renders the token's position as "line:col".
func (t Token) Pos() string { return fmt.Sprintf("%d:%d", t.Line, t.Col) }
