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
	// bytes is the length of the texts in memo.
	bytes  int64
	shared TextMemo
}

// TextMemo keeps rendered pattern texts beyond one serialization, by
// pattern node. A node's text depends on the symbol table only through
// the names of the atoms it uses, so a memo may serve every table that
// spells them alike; its owner decides which nodes and tables those are.
// Implementations are safe for concurrent use.
type TextMemo interface {
	// Text returns the text kept for p.
	Text(p *Pattern) (string, bool)
	// Keep offers texts, of bytes bytes in all. The memo may keep the
	// map itself, so the caller must not use it afterwards.
	Keep(texts map[*Pattern]string, bytes int64)
}

// NewPatternTexts returns an empty rendering memo over tab. A non-nil
// shared memo is consulted before rendering, and offered the texts
// rendered here by Share.
func NewPatternTexts(tab *term.Tab, shared TextMemo) *PatternTexts {
	return &PatternTexts{tab: tab, memo: make(map[*Pattern]string), shared: shared}
}

// Text returns PatternText(tab, p).
func (pt *PatternTexts) Text(p *Pattern) string {
	if s, ok := pt.memo[p]; ok {
		return s
	}
	if pt.shared != nil {
		if s, ok := pt.shared.Text(p); ok {
			return s
		}
	}
	s := PatternText(pt.tab, p)
	pt.memo[p] = s
	pt.bytes += int64(len(s))
	return s
}

// Share offers the texts rendered here to the shared memo, all in one
// call; pt must not be used afterwards.
func (pt *PatternTexts) Share() {
	if pt.shared != nil && len(pt.memo) > 0 {
		pt.shared.Keep(pt.memo, pt.bytes)
	}
	pt.memo = nil
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
