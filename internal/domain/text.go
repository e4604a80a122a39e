package domain

import (
	"fmt"
	"strings"

	"awam/internal/term"
)

// PatternText renders a pattern in the notation ParseAbs accepts, so
// analysis results can be saved to text and reloaded: leaves by name,
// list(T) for list types, [A|B] for cons structures, and sh(N, T)
// wrappers marking share groups (each occurrence carries the full
// subtree, which ParseAbs verifies for consistency).
func PatternText(tab *term.Tab, p *Pattern) string {
	if p == nil {
		return "bottom"
	}
	var b strings.Builder
	b.WriteString(quoteName(tab.Name(p.Fn.Name)))
	if len(p.Args) > 0 {
		b.WriteByte('(')
		for i, a := range p.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeText(&b, tab, a)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// PatternTexts renders patterns with PatternText, once per distinct
// pattern node: a serializer that writes the same interned pattern many
// times (a success equal to its call, a callee pattern in every
// caller's trace) formats it once. The zero value is not usable; make
// one with NewPatternTexts per serialization.
type PatternTexts struct {
	tab  *term.Tab
	memo map[*Pattern]string
}

// NewPatternTexts returns an empty rendering memo over tab.
func NewPatternTexts(tab *term.Tab) *PatternTexts {
	return &PatternTexts{tab: tab, memo: make(map[*Pattern]string)}
}

// Text returns PatternText(tab, p).
func (pt *PatternTexts) Text(p *Pattern) string {
	s, ok := pt.memo[p]
	if !ok {
		s = PatternText(pt.tab, p)
		pt.memo[p] = s
	}
	return s
}

func writeText(b *strings.Builder, tab *term.Tab, t *Term) {
	if t.Share != 0 {
		fmt.Fprintf(b, "sh(%d, ", t.Share)
		defer b.WriteByte(')')
	}
	switch t.Kind {
	case Empty:
		b.WriteString("empty")
	case Var:
		b.WriteString("var")
	case Nil:
		b.WriteString("[]")
	case Atom:
		b.WriteString("atom")
	case Intg:
		b.WriteString("int")
	case Const:
		b.WriteString("const")
	case Ground:
		b.WriteString("g")
	case NV:
		b.WriteString("nv")
	case Any:
		b.WriteString("any")
	case List:
		b.WriteString("list(")
		writeText(b, tab, t.Elem)
		b.WriteByte(')')
	case Struct:
		if t.Fn.Name == tab.Dot && t.Fn.Arity == 2 {
			b.WriteByte('[')
			writeText(b, tab, t.Args[0])
			b.WriteByte('|')
			writeText(b, tab, t.Args[1])
			b.WriteByte(']')
			return
		}
		b.WriteString(quoteName(tab.Name(t.Fn.Name)))
		b.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeText(b, tab, a)
		}
		b.WriteByte(')')
	}
}

// quoteName quotes atoms whose spelling would not re-read.
func quoteName(s string) string {
	if s == "" {
		return "''"
	}
	plain := true
	if !(s[0] >= 'a' && s[0] <= 'z') {
		plain = false
	}
	for i := 0; plain && i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			plain = false
		}
	}
	if plain {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
}
