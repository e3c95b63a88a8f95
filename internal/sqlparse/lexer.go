// Package sqlparse provides a hand-written lexer and recursive-descent
// parser for the conjunctive select-project-join SQL subset the paper works
// with:
//
//	SELECT COUNT(*) | * | col[, col...]
//	FROM table [alias][, table [alias]...]
//	[WHERE comparison AND comparison AND ...]
//
// Comparisons are "operand op operand" with operands being (optionally
// qualified) column references or literals, and op one of = <> != < <= > >=.
// Unqualified columns (the paper writes "s = m AND s < 100") are resolved
// against a catalog in a separate binding step.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokComma
	TokDot
	TokStar
	TokLParen
	TokRParen
	TokEQ
	TokNE
	TokLT
	TokLE
	TokGT
	TokGE
)

// String names the token kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokComma:
		return "','"
	case TokDot:
		return "'.'"
	case TokStar:
		return "'*'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokEQ:
		return "'='"
	case TokNE:
		return "'<>'"
	case TokLT:
		return "'<'"
	case TokLE:
		return "'<='"
	case TokGT:
		return "'>'"
	case TokGE:
		return "'>='"
	default:
		return "unknown token"
	}
}

// Token is one lexical unit with its source position.
type Token struct {
	// Kind classifies the token.
	Kind TokenKind
	// Text is the raw token text (unquoted for strings).
	Text string
	// Pos is the byte offset in the input where the token starts.
	Pos int
}

// lexer produces tokens from an input string.
type lexer struct {
	input string
	pos   int
}

// lex tokenizes the whole input, returning a token slice terminated by a
// TokEOF token.
func lex(input string) ([]Token, error) {
	l := &lexer{input: input}
	// SQL of this subset runs at two to three bytes a token, blanks included,
	// so one allocation of half the input's length holds the lot; denser text
	// ("R.a=S.a") just grows it.
	toks := make([]Token, 0, len(input)/2+2)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (Token, error) {
	for l.pos < len(l.input) && unicode.IsSpace(rune(l.input[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.input) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.input[l.pos]
	switch {
	case c == ',':
		l.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case c == '.':
		// A dot starting a number like ".5" is part of the number.
		if l.pos+1 < len(l.input) && isDigit(l.input[l.pos+1]) {
			return l.lexNumber()
		}
		l.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case c == '*':
		l.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case c == '(':
		l.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		l.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case c == '=':
		l.pos++
		return Token{Kind: TokEQ, Text: "=", Pos: start}, nil
	case c == '!':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.pos += 2
			return Token{Kind: TokNE, Text: "!=", Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sqlparse: unexpected '!' at offset %d", start)
	case c == '<':
		l.pos++
		if l.pos < len(l.input) {
			switch l.input[l.pos] {
			case '=':
				l.pos++
				return Token{Kind: TokLE, Text: "<=", Pos: start}, nil
			case '>':
				l.pos++
				return Token{Kind: TokNE, Text: "<>", Pos: start}, nil
			}
		}
		return Token{Kind: TokLT, Text: "<", Pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.input) && l.input[l.pos] == '=' {
			l.pos++
			return Token{Kind: TokGE, Text: ">=", Pos: start}, nil
		}
		return Token{Kind: TokGT, Text: ">", Pos: start}, nil
	case c == '\'':
		return l.lexString()
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.input) && (isDigit(l.input[l.pos+1]) || l.input[l.pos+1] == '.')):
		return l.lexNumber()
	case isIdentStart(c):
		return l.lexIdent()
	default:
		return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", c, start)
	}
}

func (l *lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string starting at offset %d", start)
}

func (l *lexer) lexNumber() (Token, error) {
	start := l.pos
	if l.input[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	seenExp := false
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.input) && (l.input[l.pos] == '+' || l.input[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.input[start:l.pos]
	if text == "-" || text == "." {
		return Token{}, fmt.Errorf("sqlparse: malformed number at offset %d", start)
	}
	return Token{Kind: TokNumber, Text: text, Pos: start}, nil
}

func (l *lexer) lexIdent() (Token, error) {
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(l.input[l.pos]) {
		l.pos++
	}
	return Token{Kind: TokIdent, Text: l.input[start:l.pos], Pos: start}, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
