// Package term defines the representation of Prolog terms shared by the
// parser, the clause compiler, both abstract-interpretation analyzers and
// the concrete machine: interned atoms, functors (name/arity pairs), and
// source-level term trees.
//
// Atoms are interned through a Tab so that the rest of the system can
// compare names and functors with ==. A Tab is safe for concurrent use:
// a loaded program's Tab is shared by every analysis of it, and
// analyses intern atoms (goal names, builtin operators) at run time.
package term

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Atom is an interned constant name. The zero Atom is the empty name.
type Atom int32

// Functor identifies a predicate or structure: a name and an arity.
// An atomic constant is a Functor with Arity 0.
type Functor struct {
	Name  Atom
	Arity int
}

// Tab interns atom names and caches the handful of atoms the system
// needs to recognize structurally (lists, conjunction, clause neck).
// Lookups of atoms already interned take only the read lock.
type Tab struct {
	mu    sync.RWMutex
	names []string
	index map[string]Atom

	// Frequently tested atoms, interned at construction.
	Nil   Atom // []
	Dot   Atom // '.'  (list constructor)
	Comma Atom // ','
	Neck  Atom // ':-'
	True  Atom // true
	Fail  Atom // fail
	Cut   Atom // !
}

// NewTab returns a fresh atom table with the well-known atoms interned.
func NewTab() *Tab {
	t := &Tab{index: make(map[string]Atom)}
	t.Intern("") // reserve Atom(0)
	t.Nil = t.Intern("[]")
	t.Dot = t.Intern(".")
	t.Comma = t.Intern(",")
	t.Neck = t.Intern(":-")
	t.True = t.Intern("true")
	t.Fail = t.Intern("fail")
	t.Cut = t.Intern("!")
	return t
}

// Intern returns the unique Atom for name, creating it if necessary.
func (t *Tab) Intern(name string) Atom {
	t.mu.RLock()
	a, ok := t.index[name]
	t.mu.RUnlock()
	if ok {
		return a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.index[name]; ok {
		return a
	}
	a = Atom(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = a
	return a
}

// Len returns the number of atoms interned so far. A table only grows,
// so Len never decreases.
func (t *Tab) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.names)
}

// Name returns the spelling of an interned atom.
func (t *Tab) Name(a Atom) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(a) < 0 || int(a) >= len(t.names) {
		return fmt.Sprintf("<atom#%d>", int(a))
	}
	return t.names[a]
}

// Names returns the spelling of each atom in atoms, under one lock.
func (t *Tab) Names(atoms []Atom) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, len(atoms))
	for i, a := range atoms {
		if int(a) < 0 || int(a) >= len(t.names) {
			out[i] = fmt.Sprintf("<atom#%d>", int(a))
			continue
		}
		out[i] = t.names[a]
	}
	return out
}

// Spells reports whether t interns every atom in atoms with the name at
// the same index of names (as Names returned them from some table).
func (t *Tab) Spells(atoms []Atom, names []string) bool {
	if len(atoms) != len(names) {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, a := range atoms {
		if int(a) < 0 || int(a) >= len(t.names) || t.names[a] != names[i] {
			return false
		}
	}
	return true
}

// Func interns name and returns the functor name/arity.
func (t *Tab) Func(name string, arity int) Functor {
	return Functor{Name: t.Intern(name), Arity: arity}
}

// FuncString renders a functor as name/arity.
func (t *Tab) FuncString(f Functor) string {
	return t.Name(f.Name) + "/" + strconv.Itoa(f.Arity)
}

// ConsFunctor returns the list constructor './2'.
func (t *Tab) ConsFunctor() Functor { return Functor{Name: t.Dot, Arity: 2} }

// Kind discriminates the source-level term variants.
type Kind uint8

const (
	// KVar is a logic variable; identity is the Ref pointer.
	KVar Kind = iota
	// KAtom is an atomic constant (arity-0 functor).
	KAtom
	// KInt is an integer constant.
	KInt
	// KStruct is a compound term, including list cells './2'.
	KStruct
)

// VarRef carries the identity and source name of a variable. Two *Term
// values denote the same variable exactly when they share a VarRef.
type VarRef struct {
	Name string
}

// Term is a source-level Prolog term tree.
type Term struct {
	Kind Kind
	Fn   Functor // KAtom (Arity 0) and KStruct
	Int  int64   // KInt
	Args []*Term // KStruct
	Ref  *VarRef // KVar
}

// NewVar returns a fresh variable term with the given display name.
func NewVar(name string) *Term {
	return &Term{Kind: KVar, Ref: &VarRef{Name: name}}
}

// SameVar reports whether both terms are the same variable.
func SameVar(a, b *Term) bool {
	return a.Kind == KVar && b.Kind == KVar && a.Ref == b.Ref
}

// MkAtom returns an atomic-constant term.
func MkAtom(a Atom) *Term { return &Term{Kind: KAtom, Fn: Functor{Name: a}} }

// MkInt returns an integer-constant term.
func MkInt(n int64) *Term { return &Term{Kind: KInt, Int: n} }

// MkStruct returns a compound term f(args...). It panics if the arity of
// f does not match len(args): that is always a construction bug.
func MkStruct(f Functor, args ...*Term) *Term {
	if f.Arity != len(args) {
		panic(fmt.Sprintf("term: functor arity %d with %d args", f.Arity, len(args)))
	}
	if f.Arity == 0 {
		return MkAtom(f.Name)
	}
	return &Term{Kind: KStruct, Fn: f, Args: args}
}

// MkList builds a proper or partial list from elems ending in tail.
// A nil tail means the empty list constant.
func MkList(t *Tab, elems []*Term, tail *Term) *Term {
	if tail == nil {
		tail = MkAtom(t.Nil)
	}
	out := tail
	cons := t.ConsFunctor()
	for i := len(elems) - 1; i >= 0; i-- {
		out = MkStruct(cons, elems[i], out)
	}
	return out
}

// IsNil reports whether tm is the empty-list constant.
func (t *Tab) IsNil(tm *Term) bool {
	return tm.Kind == KAtom && tm.Fn.Name == t.Nil
}

// IsCons reports whether tm is a list cell './2'.
func (t *Tab) IsCons(tm *Term) bool {
	return tm.Kind == KStruct && tm.Fn.Name == t.Dot && tm.Fn.Arity == 2
}

// Indicator returns the functor of a callable term (atom or struct), and
// false for variables and integers.
func Indicator(tm *Term) (Functor, bool) {
	switch tm.Kind {
	case KAtom, KStruct:
		return tm.Fn, true
	default:
		return Functor{}, false
	}
}

// Clause is a program clause Head :- Body1, ..., BodyN. Facts have an
// empty body.
type Clause struct {
	Head *Term
	Body []*Term
}

// Vars returns the distinct variables of the clause in first-occurrence
// order.
func (c *Clause) Vars() []*Term {
	seen := make(map[*VarRef]bool)
	var out []*Term
	var walk func(tm *Term)
	walk = func(tm *Term) {
		switch tm.Kind {
		case KVar:
			if !seen[tm.Ref] {
				seen[tm.Ref] = true
				out = append(out, tm)
			}
		case KStruct:
			for _, a := range tm.Args {
				walk(a)
			}
		}
	}
	walk(c.Head)
	for _, g := range c.Body {
		walk(g)
	}
	return out
}

// Program is a parsed Prolog program: the clause list in source order and
// the predicate grouping derived from it.
type Program struct {
	Clauses []Clause
	// Preds maps each defined predicate to the indices of its clauses in
	// source order.
	Preds map[Functor][]int
	// Order lists defined predicates in first-definition order.
	Order []Functor
}

// NewProgram groups clauses by predicate, preserving source order.
func NewProgram(clauses []Clause) (*Program, error) {
	p := &Program{Clauses: clauses, Preds: make(map[Functor][]int)}
	for i, c := range clauses {
		f, ok := Indicator(c.Head)
		if !ok {
			return nil, fmt.Errorf("term: clause %d head is not callable", i)
		}
		if _, seen := p.Preds[f]; !seen {
			p.Order = append(p.Order, f)
		}
		p.Preds[f] = append(p.Preds[f], i)
	}
	return p, nil
}

// ClausesOf returns the clauses of predicate f in source order.
func (p *Program) ClausesOf(f Functor) []Clause {
	idx := p.Preds[f]
	out := make([]Clause, len(idx))
	for i, j := range idx {
		out[i] = p.Clauses[j]
	}
	return out
}

// ArgPlaces returns the total number of argument positions over all
// defined predicates — the "Args" profile column of the paper's Table 1.
func (p *Program) ArgPlaces() int {
	n := 0
	for _, f := range p.Order {
		n += f.Arity
	}
	return n
}

// NumPreds returns the number of defined predicates (Table 1 "Preds").
func (p *Program) NumPreds() int { return len(p.Order) }

// Rename returns a copy of tm with every variable replaced by a fresh one,
// consistently within the call. It is used to instantiate clause copies.
func Rename(tm *Term) *Term {
	return renameWith(tm, make(map[*VarRef]*Term))
}

// RenameClause returns a fresh-variable copy of c.
func RenameClause(c Clause) Clause {
	env := make(map[*VarRef]*Term)
	out := Clause{Head: renameWith(c.Head, env)}
	for _, g := range c.Body {
		out.Body = append(out.Body, renameWith(g, env))
	}
	return out
}

func renameWith(tm *Term, env map[*VarRef]*Term) *Term {
	switch tm.Kind {
	case KVar:
		if v, ok := env[tm.Ref]; ok {
			return v
		}
		v := NewVar(tm.Ref.Name)
		env[tm.Ref] = v
		return v
	case KStruct:
		args := make([]*Term, len(tm.Args))
		for i, a := range tm.Args {
			args[i] = renameWith(a, env)
		}
		return &Term{Kind: KStruct, Fn: tm.Fn, Args: args}
	default:
		return tm
	}
}

// Equal reports structural equality; variables are equal iff identical.
func Equal(a, b *Term) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KVar:
		return a.Ref == b.Ref
	case KAtom:
		return a.Fn.Name == b.Fn.Name
	case KInt:
		return a.Int == b.Int
	case KStruct:
		if a.Fn != b.Fn {
			return false
		}
		for i := range a.Args {
			if !Equal(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Write renders tm in a readable, re-parsable form: lists in bracket
// notation, common operators infix, everything else canonical.
func (t *Tab) Write(tm *Term) string {
	var b strings.Builder
	t.write(&b, tm, 1200, make(map[*VarRef]string))
	return b.String()
}

// WriteAll renders several terms, comma separated.
func (t *Tab) WriteAll(tms []*Term) string {
	parts := make([]string, len(tms))
	for i, tm := range tms {
		parts[i] = t.Write(tm)
	}
	return strings.Join(parts, ", ")
}

// WriteClause renders a clause with its neck and period.
func (t *Tab) WriteClause(c Clause) string {
	if len(c.Body) == 0 {
		return t.Write(c.Head) + "."
	}
	return t.Write(c.Head) + " :- " + t.WriteAll(c.Body) + "."
}

// infix operators the writer knows, by priority (subset of the parser's
// table; anything else prints canonically).
var writeOps = map[string]struct {
	prio        int
	left, right int
}{
	";":    {1100, 1100, 1050},
	"->":   {1050, 1049, 1050},
	"=":    {700, 699, 699},
	"\\=":  {700, 699, 699},
	"==":   {700, 699, 699},
	"\\==": {700, 699, 699},
	"is":   {700, 699, 699},
	"=:=":  {700, 699, 699},
	"=\\=": {700, 699, 699},
	"<":    {700, 699, 699},
	">":    {700, 699, 699},
	"=<":   {700, 699, 699},
	">=":   {700, 699, 699},
	"+":    {500, 500, 499},
	"-":    {500, 500, 499},
	"*":    {400, 400, 399},
	"/":    {400, 400, 399},
	"//":   {400, 400, 399},
	"mod":  {400, 400, 399},
	"^":    {200, 199, 200},
}

func (t *Tab) write(b *strings.Builder, tm *Term, maxPrio int, names map[*VarRef]string) {
	switch tm.Kind {
	case KVar:
		name, ok := names[tm.Ref]
		if !ok {
			name = tm.Ref.Name
			if name == "" || name == "_" {
				name = fmt.Sprintf("_G%d", len(names))
			}
			names[tm.Ref] = name
		}
		b.WriteString(name)
	case KInt:
		fmt.Fprintf(b, "%d", tm.Int)
	case KAtom:
		b.WriteString(t.atomText(tm.Fn.Name))
	case KStruct:
		if t.IsCons(tm) {
			t.writeList(b, tm, names)
			return
		}
		name := t.Name(tm.Fn.Name)
		if op, ok := writeOps[name]; ok && tm.Fn.Arity == 2 {
			paren := op.prio > maxPrio
			if paren {
				b.WriteByte('(')
			}
			t.write(b, tm.Args[0], op.left, names)
			if name == "," {
				b.WriteString(", ")
			} else {
				b.WriteByte(' ')
				b.WriteString(name)
				b.WriteByte(' ')
			}
			t.write(b, tm.Args[1], op.right, names)
			if paren {
				b.WriteByte(')')
			}
			return
		}
		if name == "-" && tm.Fn.Arity == 1 {
			b.WriteString("-")
			t.write(b, tm.Args[0], 200, names)
			return
		}
		b.WriteString(t.atomText(tm.Fn.Name))
		b.WriteByte('(')
		for i, a := range tm.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			t.write(b, a, 999, names)
		}
		b.WriteByte(')')
	}
}

func (t *Tab) writeList(b *strings.Builder, tm *Term, names map[*VarRef]string) {
	b.WriteByte('[')
	first := true
	for t.IsCons(tm) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		t.write(b, tm.Args[0], 999, names)
		tm = tm.Args[1]
	}
	if !t.IsNil(tm) {
		b.WriteByte('|')
		t.write(b, tm, 999, names)
	}
	b.WriteByte(']')
}

// atomText quotes an atom when its spelling would not re-read as an atom.
func (t *Tab) atomText(a Atom) string {
	s := t.Name(a)
	if s == "" {
		return "''"
	}
	if s == "[]" || s == "!" || s == ";" || s == "{}" {
		return s
	}
	if isLowerAlnum(s) || isSymbolic(s) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
}

func isLowerAlnum(s string) bool {
	if s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

const symbolChars = "+-*/\\^<>=~:.?@#&$"

func isSymbolic(s string) bool {
	for i := 0; i < len(s); i++ {
		if !strings.ContainsRune(symbolChars, rune(s[i])) {
			return false
		}
	}
	return true
}

// SortedFunctors returns functors sorted by name then arity — a stable
// order for reports.
func (t *Tab) SortedFunctors(fs []Functor) []Functor {
	out := append([]Functor(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		ni, nj := t.Name(out[i].Name), t.Name(out[j].Name)
		if ni != nj {
			return ni < nj
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}
