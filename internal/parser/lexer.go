// Package parser implements a Prolog reader: a tokenizer and an
// operator-precedence parser producing term.Clause values. It covers the
// subset of ISO syntax exercised by the PLM benchmark suite: atoms
// (unquoted, quoted, symbolic), variables, integers, double-quoted strings
// (read as lists of character codes), lists, curly-free compound terms,
// and the standard operator table.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokAtom
	tokVar
	tokInt
	tokStr    // "..." — list of codes
	tokPunct  // ( ) [ ] | ,  and the solo chars
	tokEnd    // clause-terminating period
	tokOpenCT // '(' immediately after a name: functor application
)

type token struct {
	kind tokKind
	text string
	ival int64
	line int
	col  int
	off  int // byte offset of the token's first character
}

func (tk token) String() string {
	switch tk.kind {
	case tokEOF:
		return "<eof>"
	case tokEnd:
		return "."
	case tokInt:
		return fmt.Sprintf("%d", tk.ival)
	default:
		return tk.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	// prevWasName tracks whether the previous token could be a functor
	// name, so that a following '(' with no space becomes tokOpenCT.
	prevWasName bool
}

// newLexer returns a lexer over src positioned at byte offset pos,
// with the line and column of that offset.
func newLexer(src string, pos int) *lexer {
	before := src[:pos]
	return &lexer{
		src:  src,
		pos:  pos,
		line: 1 + strings.Count(before, "\n"),
		col:  pos - strings.LastIndexByte(before, '\n'),
	}
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("prolog parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (lx *lexer) errorf(format string, args ...interface{}) error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.pos], true
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skipLayout consumes whitespace and comments. It reports whether any
// layout was skipped (needed for the name-'(' adjacency rule).
func (lx *lexer) skipLayout() (bool, error) {
	skipped := false
	for {
		c, ok := lx.peekByte()
		if !ok {
			return skipped, nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
			skipped = true
		case c == '%':
			for {
				c2, ok2 := lx.peekByte()
				if !ok2 || c2 == '\n' {
					break
				}
				lx.advance()
			}
			skipped = true
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.src[lx.pos] == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return skipped, lx.errorf("unterminated block comment")
			}
			skipped = true
		default:
			return skipped, nil
		}
	}
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolChar(c byte) bool { return strings.IndexByte(symbolChars, c) >= 0 }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	layout, err := lx.skipLayout()
	if err != nil {
		return token{}, err
	}
	tk := token{line: lx.line, col: lx.col, off: lx.pos}
	c, ok := lx.peekByte()
	if !ok {
		tk.kind = tokEOF
		lx.prevWasName = false
		return tk, nil
	}
	switch {
	case c == '(':
		lx.advance()
		if lx.prevWasName && !layout {
			tk.kind = tokOpenCT
		} else {
			tk.kind = tokPunct
		}
		tk.text = "("
		lx.prevWasName = false
		return tk, nil
	case c == ')' || c == ']' || c == '}':
		lx.advance()
		tk.kind = tokPunct
		tk.text = string(c)
		lx.prevWasName = true // ")(" never a functor application in our subset
		return tk, nil
	case c == '[' || c == '{' || c == '|':
		lx.advance()
		tk.kind = tokPunct
		tk.text = string(c)
		lx.prevWasName = false
		return tk, nil
	case c == ',':
		lx.advance()
		tk.kind = tokPunct
		tk.text = ","
		lx.prevWasName = false
		return tk, nil
	case c == '!':
		lx.advance()
		tk.kind = tokAtom
		tk.text = "!"
		lx.prevWasName = true
		return tk, nil
	case c == ';':
		lx.advance()
		tk.kind = tokAtom
		tk.text = ";"
		lx.prevWasName = true
		return tk, nil
	case c >= '0' && c <= '9':
		return lx.lexNumber(tk)
	case c == '_' || unicode.IsUpper(rune(c)):
		start := lx.pos
		for lx.pos < len(lx.src) && isAlnum(lx.src[lx.pos]) {
			lx.advance()
		}
		tk.kind = tokVar
		tk.text = lx.src[start:lx.pos]
		lx.prevWasName = false
		return tk, nil
	case c >= 'a' && c <= 'z':
		start := lx.pos
		for lx.pos < len(lx.src) && isAlnum(lx.src[lx.pos]) {
			lx.advance()
		}
		tk.kind = tokAtom
		tk.text = lx.src[start:lx.pos]
		lx.prevWasName = true
		return tk, nil
	case c == '\'':
		return lx.lexQuoted(tk)
	case c == '"':
		return lx.lexString(tk)
	case isSymbolChar(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isSymbolChar(lx.src[lx.pos]) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		// A solitary '.' followed by layout or EOF terminates the clause.
		if text == "." {
			tk.kind = tokEnd
			lx.prevWasName = false
			return tk, nil
		}
		// A symbolic token ending in '.' where the '.' is clause-final
		// (e.g. "foo:-bar." lexes ":-" then later "."), only matters when
		// the whole token is the terminator; symbol runs are maximal-munch
		// otherwise, matching standard Prolog tokenization.
		tk.kind = tokAtom
		tk.text = text
		lx.prevWasName = true
		return tk, nil
	default:
		return tk, lx.errorf("unexpected character %q", c)
	}
}

func (lx *lexer) lexNumber(tk token) (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
		lx.advance()
	}
	// 0'c character code notation
	if lx.pos-start == 1 && lx.src[start] == '0' && lx.pos < len(lx.src) && lx.src[lx.pos] == '\'' {
		lx.advance()
		if lx.pos >= len(lx.src) {
			return tk, lx.errorf("unterminated character code")
		}
		ch := lx.advance()
		if ch == '\\' {
			esc, err := lx.lexEscape()
			if err != nil {
				return tk, err
			}
			ch = esc
		}
		tk.kind = tokInt
		tk.ival = int64(ch)
		lx.prevWasName = false
		return tk, nil
	}
	var n int64
	for _, d := range lx.src[start:lx.pos] {
		n = n*10 + int64(d-'0')
	}
	tk.kind = tokInt
	tk.ival = n
	lx.prevWasName = false
	return tk, nil
}

func (lx *lexer) lexEscape() (byte, error) {
	if lx.pos >= len(lx.src) {
		return 0, lx.errorf("unterminated escape")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case 'a':
		return 7, nil
	case 'b':
		return 8, nil
	case 'f':
		return 12, nil
	case 'v':
		return 11, nil
	case '\\', '\'', '"', '`':
		return c, nil
	case '0':
		return 0, nil
	default:
		return 0, lx.errorf("unknown escape \\%c", c)
	}
}

func (lx *lexer) lexQuoted(tk token) (token, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return tk, lx.errorf("unterminated quoted atom")
		}
		c := lx.advance()
		switch c {
		case '\'':
			if nc, ok := lx.peekByte(); ok && nc == '\'' {
				lx.advance()
				b.WriteByte('\'')
				continue
			}
			tk.kind = tokAtom
			tk.text = b.String()
			lx.prevWasName = true
			return tk, nil
		case '\\':
			esc, err := lx.lexEscape()
			if err != nil {
				return tk, err
			}
			b.WriteByte(esc)
		default:
			b.WriteByte(c)
		}
	}
}

func (lx *lexer) lexString(tk token) (token, error) {
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return tk, lx.errorf("unterminated string")
		}
		c := lx.advance()
		switch c {
		case '"':
			tk.kind = tokStr
			tk.text = b.String()
			lx.prevWasName = false
			return tk, nil
		case '\\':
			esc, err := lx.lexEscape()
			if err != nil {
				return tk, err
			}
			b.WriteByte(esc)
		default:
			b.WriteByte(c)
		}
	}
}
