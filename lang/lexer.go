package lang

import "fmt"

// lexer tokenizes core-language source text. Comments run from "//" to end
// of line; whitespace separates tokens.
type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// here is the position of the next unread byte.
func (l *lexer) here() Pos { return Pos{l.line, l.pos - l.lineStart + 1} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", l.here(), fmt.Sprintf(format, args...))
}

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// next lexes the next token into t.
func (l *lexer) next(t *Token) error {
	src := l.src
	for l.pos < len(src) {
		switch c := src[l.pos]; {
		case c == '\n':
			l.pos++
			l.line++
			l.lineStart = l.pos
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(src) && src[l.pos+1] == '/':
			for l.pos < len(src) && src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.lexToken(t)
		}
	}
	*t = Token{Kind: TokEOF, Pos: l.here()}
	return nil
}

// punct lists the one-byte tokens by their byte; two-byte operators are
// lexToken's.
var punct = [256]TokenKind{
	'{': TokLBrace, '}': TokRBrace, '(': TokLParen, ')': TokRParen,
	';': TokSemi, ',': TokComma, '.': TokDot, ':': TokColon,
	'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash, '%': TokPercent,
	'!': TokBang, '<': TokLt, '>': TokGt,
}

// lexToken lexes the token that starts at l.pos; a token never spans lines.
func (l *lexer) lexToken(t *Token) error {
	src, start := l.src, l.pos
	t.Pos = l.here()
	c := src[start]
	switch {
	case isLetter(c):
		for l.pos++; l.pos < len(src) && (isLetter(src[l.pos]) || isDigit(src[l.pos])); l.pos++ {
		}
		t.Text = src[start:l.pos]
		t.Kind = keywordKind(t.Text)
		return nil
	case isDigit(c):
		for l.pos++; l.pos < len(src) && isDigit(src[l.pos]); l.pos++ {
		}
		t.Kind, t.Text = TokInt, src[start:l.pos]
		return nil
	}
	l.pos++
	kind := punct[c] // TokEOF: no such token
	if l.pos < len(src) {
		two := TokEOF
		switch next := src[l.pos]; {
		case c == ':' && next == '=':
			two = TokAssign
		case c == '=' && next == '=':
			two = TokEq
		case c == '!' && next == '=':
			two = TokNeq
		case c == '<' && next == '=':
			two = TokLe
		case c == '>' && next == '=':
			two = TokGe
		case c == '&' && next == '&':
			two = TokAndAnd
		case c == '|' && next == '|':
			two = TokOrOr
		}
		if two != TokEOF {
			l.pos++
			kind = two
		}
	}
	if kind == TokEOF {
		return l.errorf("unexpected character %q", string(c))
	}
	t.Kind, t.Text = kind, src[start:l.pos]
	return nil
}

// Lex tokenizes src fully (used by tests and tools).
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	var out []Token
	for {
		var t Token
		if err := l.next(&t); err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
