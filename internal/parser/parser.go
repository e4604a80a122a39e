package parser

import (
	"fmt"

	"awam/internal/term"
)

// opType is the ISO operator specifier.
type opType uint8

const (
	xfx opType = iota
	xfy
	yfx
	fy
	fx
)

type opInfo struct {
	prio int
	typ  opType
}

// Standard operator table (the subset the benchmark suite needs).
var infixOps = map[string]opInfo{
	":-":   {1200, xfx},
	"-->":  {1200, xfx},
	";":    {1100, xfy},
	"->":   {1050, xfy},
	",":    {1000, xfy},
	"=":    {700, xfx},
	"\\=":  {700, xfx},
	"==":   {700, xfx},
	"\\==": {700, xfx},
	"@<":   {700, xfx},
	"@>":   {700, xfx},
	"@=<":  {700, xfx},
	"@>=":  {700, xfx},
	"is":   {700, xfx},
	"=:=":  {700, xfx},
	"=\\=": {700, xfx},
	"<":    {700, xfx},
	">":    {700, xfx},
	"=<":   {700, xfx},
	">=":   {700, xfx},
	"=..":  {700, xfx},
	"+":    {500, yfx},
	"-":    {500, yfx},
	"/\\":  {500, yfx},
	"\\/":  {500, yfx},
	"xor":  {500, yfx},
	"*":    {400, yfx},
	"/":    {400, yfx},
	"//":   {400, yfx},
	"mod":  {400, yfx},
	"rem":  {400, yfx},
	"<<":   {400, yfx},
	">>":   {400, yfx},
	"**":   {200, xfx},
	"^":    {200, xfy},
}

var prefixOps = map[string]opInfo{
	":-":  {1200, fx},
	"?-":  {1200, fx},
	"\\+": {900, fy},
	"-":   {200, fy},
	"+":   {200, fy},
	"\\":  {200, fy},
}

// Parser reads clauses from a source string.
type Parser struct {
	tab  *term.Tab
	lx   *lexer
	tok  token
	vars map[string]*term.Term // per-clause variable scope
	// end is the byte offset just past the last clause's period.
	end int
}

// New returns a parser over src interning into tab.
func New(tab *term.Tab, src string) (*Parser, error) {
	return newAt(tab, src, 0)
}

// newAt returns a parser over src that starts reading at byte offset
// pos, which must be 0 or a clause boundary (see Chunk).
func newAt(tab *term.Tab, src string, pos int) (*Parser, error) {
	p := &Parser{tab: tab, lx: newLexer(src, pos)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Parser) advance() error {
	tk, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tk
	return nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

// ReadClause reads the next clause; it returns ok=false at end of input.
// Directives (:- Goal.) are returned as clauses whose Head is the atom
// '$directive' and whose Body is the directive goal sequence.
func (p *Parser) ReadClause() (term.Clause, bool, error) {
	if p.tok.kind == tokEOF {
		return term.Clause{}, false, nil
	}
	p.vars = make(map[string]*term.Term)
	tm, err := p.parse(1200)
	if err != nil {
		return term.Clause{}, false, err
	}
	if p.tok.kind != tokEnd {
		return term.Clause{}, false, p.errorf("expected '.' after clause, got %s", p.tok)
	}
	p.end = p.tok.off + 1
	if err := p.advance(); err != nil {
		return term.Clause{}, false, err
	}
	return p.toClause(tm)
}

func (p *Parser) toClause(tm *term.Term) (term.Clause, bool, error) {
	neck := p.tab.Func(":-", 2)
	dir1 := p.tab.Func(":-", 1)
	switch {
	case tm.Kind == term.KStruct && tm.Fn == neck:
		head := tm.Args[0]
		if _, ok := term.Indicator(head); !ok {
			return term.Clause{}, false, p.errorf("clause head must be callable")
		}
		return term.Clause{Head: head, Body: p.flattenConj(tm.Args[1])}, true, nil
	case tm.Kind == term.KStruct && tm.Fn == dir1:
		return term.Clause{
			Head: term.MkAtom(p.tab.Intern("$directive")),
			Body: p.flattenConj(tm.Args[0]),
		}, true, nil
	default:
		if _, ok := term.Indicator(tm); !ok {
			return term.Clause{}, false, p.errorf("clause head must be callable")
		}
		return term.Clause{Head: tm}, true, nil
	}
}

// flattenConj flattens nested ','/2 into a goal list. Control constructs
// other than conjunction (';', '->') remain single goals for the compiler
// to reject or expand.
func (p *Parser) flattenConj(tm *term.Term) []*term.Term {
	comma := term.Functor{Name: p.tab.Comma, Arity: 2}
	var out []*term.Term
	var walk func(g *term.Term)
	walk = func(g *term.Term) {
		if g.Kind == term.KStruct && g.Fn == comma {
			walk(g.Args[0])
			walk(g.Args[1])
			return
		}
		out = append(out, g)
	}
	walk(tm)
	return out
}

// parse reads a term of priority at most maxPrio.
func (p *Parser) parse(maxPrio int) (*term.Term, error) {
	left, leftPrio, err := p.parsePrimary(maxPrio)
	if err != nil {
		return nil, err
	}
	return p.parseInfix(left, leftPrio, maxPrio)
}

func (p *Parser) parseInfix(left *term.Term, leftPrio, maxPrio int) (*term.Term, error) {
	for {
		var name string
		switch {
		case p.tok.kind == tokAtom:
			name = p.tok.text
		case p.tok.kind == tokPunct && p.tok.text == ",":
			name = ","
		case p.tok.kind == tokPunct && p.tok.text == "|":
			// '|' as an infix is only valid inside lists, handled there.
			return left, nil
		default:
			return left, nil
		}
		op, ok := infixOps[name]
		if !ok || op.prio > maxPrio {
			return left, nil
		}
		leftMax, rightMax := op.prio-1, op.prio-1
		switch op.typ {
		case xfy:
			rightMax = op.prio
		case yfx:
			leftMax = op.prio
		}
		if leftPrio > leftMax {
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parse(rightMax)
		if err != nil {
			return nil, err
		}
		left = term.MkStruct(p.tab.Func(name, 2), left, right)
		leftPrio = op.prio
	}
}

// parsePrimary reads one operand, returning the term and its priority
// (operators read as prefix applications carry their operator priority).
func (p *Parser) parsePrimary(maxPrio int) (*term.Term, int, error) {
	tk := p.tok
	switch tk.kind {
	case tokEOF:
		return nil, 0, p.errorf("unexpected end of input")
	case tokInt:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		return term.MkInt(tk.ival), 0, nil
	case tokVar:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		if tk.text == "_" {
			return term.NewVar("_"), 0, nil
		}
		if v, ok := p.vars[tk.text]; ok {
			return v, 0, nil
		}
		v := term.NewVar(tk.text)
		p.vars[tk.text] = v
		return v, 0, nil
	case tokStr:
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		codes := make([]*term.Term, len(tk.text))
		for i := 0; i < len(tk.text); i++ {
			codes[i] = term.MkInt(int64(tk.text[i]))
		}
		return term.MkList(p.tab, codes, nil), 0, nil
	case tokOpenCT, tokPunct:
		// A '(' reached here (rather than via the functor-application
		// check below) groups a subterm, even when it followed an
		// operator with no layout, e.g. "X/(Y*Z)".
		switch tk.text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			tm, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, 0, err
			}
			return tm, 0, nil
		case "[":
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			return p.parseList()
		case "{":
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			if p.tok.kind == tokPunct && p.tok.text == "}" {
				if err := p.advance(); err != nil {
					return nil, 0, err
				}
				return term.MkAtom(p.tab.Intern("{}")), 0, nil
			}
			tm, err := p.parse(1200)
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, 0, err
			}
			return term.MkStruct(p.tab.Func("{}", 1), tm), 0, nil
		default:
			return nil, 0, p.errorf("unexpected %q", tk.text)
		}
	case tokAtom:
		name := tk.text
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		// Functor application: name immediately followed by '('.
		if p.tok.kind == tokOpenCT {
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			args, err := p.parseArgs()
			if err != nil {
				return nil, 0, err
			}
			return term.MkStruct(p.tab.Func(name, len(args)), args...), 0, nil
		}
		// Prefix operator.
		if op, ok := prefixOps[name]; ok && op.prio <= maxPrio && p.canStartTerm() {
			// Negative integer literals fold immediately.
			if name == "-" && p.tok.kind == tokInt {
				n := p.tok.ival
				if err := p.advance(); err != nil {
					return nil, 0, err
				}
				return term.MkInt(-n), 0, nil
			}
			argMax := op.prio
			if op.typ == fx {
				argMax = op.prio - 1
			}
			arg, err := p.parse(argMax)
			if err != nil {
				return nil, 0, err
			}
			return term.MkStruct(p.tab.Func(name, 1), arg), op.prio, nil
		}
		return term.MkAtom(p.tab.Intern(name)), 0, nil
	default:
		return nil, 0, p.errorf("unexpected token %s", tk)
	}
}

// canStartTerm reports whether the current token can begin an operand, so
// that an atom like '-' standing alone is not misread as a prefix operator.
func (p *Parser) canStartTerm() bool {
	switch p.tok.kind {
	case tokInt, tokVar, tokStr, tokOpenCT:
		return true
	case tokAtom:
		// An infix operator cannot start a term unless it is also prefix
		// or a plain atom; be permissive — primary parsing will decide.
		return true
	case tokPunct:
		return p.tok.text == "(" || p.tok.text == "[" || p.tok.text == "{"
	default:
		return false
	}
}

func (p *Parser) parseArgs() ([]*term.Term, error) {
	var args []*term.Term
	for {
		a, err := p.parse(999)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return args, nil
	}
}

func (p *Parser) parseList() (*term.Term, int, error) {
	if p.tok.kind == tokPunct && p.tok.text == "]" {
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		return term.MkAtom(p.tab.Nil), 0, nil
	}
	var elems []*term.Term
	for {
		e, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		elems = append(elems, e)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, 0, err
			}
			continue
		}
		break
	}
	var tail *term.Term
	if p.tok.kind == tokPunct && p.tok.text == "|" {
		if err := p.advance(); err != nil {
			return nil, 0, err
		}
		t, err := p.parse(999)
		if err != nil {
			return nil, 0, err
		}
		tail = t
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, 0, err
	}
	return term.MkList(p.tab, elems, tail), 0, nil
}

func (p *Parser) expectPunct(text string) error {
	if p.tok.kind != tokPunct || p.tok.text != text {
		return p.errorf("expected %q, got %s", text, p.tok)
	}
	return p.advance()
}

// ParseProgram parses a complete program source into grouped clauses.
// Directives are dropped (the benchmark suite defines entry points as
// ordinary main/0 predicates).
func ParseProgram(tab *term.Tab, src string) (*term.Program, error) {
	clauses, err := ParseClauses(tab, src)
	if err != nil {
		return nil, err
	}
	return term.NewProgram(clauses)
}

// ParseClauses parses all clauses in src, dropping directives.
func ParseClauses(tab *term.Tab, src string) ([]term.Clause, error) {
	chunks, err := ReadChunks(tab, src, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make([]term.Clause, 0, len(chunks))
	for _, ch := range chunks {
		if !ch.Directive {
			out = append(out, ch.Clause)
		}
	}
	return out, nil
}

// Chunk is one clause of a source text as the reader found it.
//
// The offset just past a clause's terminating period is a clause
// boundary: there the reader is in the state it starts a source in
// (no lookahead context, a fresh variable scope), and the operator
// table is fixed, so what it reads from a boundary depends only on the
// bytes from there on. Reading can therefore start at any boundary of
// a source, and a stretch of clauses whose bytes, and the byte after
// their last period, did not change reads to the same clauses.
type Chunk struct {
	Clause term.Clause
	// End is the byte offset just past the clause's period.
	End int
	// Directive marks a ':- Goal.' clause, which a program drops.
	Directive bool
}

// ReadChunks reads the clauses of src from byte offset start, which
// must be 0 or a clause boundary, in source order, to the end of src or
// until stop (when not nil) returns true for a clause's End. Errors,
// with their line:col positions, are those a read of the whole of src
// would report first, provided none precedes start.
func ReadChunks(tab *term.Tab, src string, start int, stop func(end int) bool) ([]Chunk, error) {
	p, err := newAt(tab, src, start)
	if err != nil {
		return nil, err
	}
	directive := tab.Intern("$directive")
	var out []Chunk
	for {
		c, ok, err := p.ReadClause()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		dir := c.Head.Kind == term.KAtom && c.Head.Fn.Name == directive
		out = append(out, Chunk{Clause: c, End: p.end, Directive: dir})
		if stop != nil && stop(p.end) {
			return out, nil
		}
	}
}

// ParseTerm parses a single term (no trailing period required).
func ParseTerm(tab *term.Tab, src string) (*term.Term, error) {
	p, err := New(tab, src)
	if err != nil {
		return nil, err
	}
	p.vars = make(map[string]*term.Term)
	tm, err := p.parse(1200)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF && p.tok.kind != tokEnd {
		return nil, p.errorf("trailing input after term: %s", p.tok)
	}
	return tm, nil
}

// ParseGoal parses a goal conjunction such as "p(X), q(X)" into a flat
// goal list sharing one variable scope.
func ParseGoal(tab *term.Tab, src string) ([]*term.Term, error) {
	p, err := New(tab, src)
	if err != nil {
		return nil, err
	}
	p.vars = make(map[string]*term.Term)
	tm, err := p.parse(1200)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF && p.tok.kind != tokEnd {
		return nil, p.errorf("trailing input after goal: %s", p.tok)
	}
	return p.flattenConj(tm), nil
}
