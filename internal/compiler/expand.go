package compiler

import (
	"fmt"

	"awam/internal/term"
)

// expandControl rewrites the control constructs ';'/2, '->'/2 (inside a
// disjunction or alone) and '\+'/1 into auxiliary predicates, the
// standard preprocessing used by WAM compilers:
//
//	p :- a, (b ; c), d.        =>  p :- a, '$or1'(V...), d.
//	                               '$or1'(V...) :- b.
//	                               '$or1'(V...) :- c.
//
//	( C -> T ; E )             =>  '$ite1'(V...) :- C, !, T.
//	                               '$ite1'(V...) :- E.
//
//	\+ G                       =>  '$not1'(V...) :- G, !, fail.
//	                               '$not1'(V...).
//
// where V... are the variables of the construct (shared variables keep
// their bindings through the auxiliary call). Note the cut inserted for
// '->' and '\+' is local to the auxiliary predicate, which is exactly
// the intended semantics; a user-written '!' inside a disjunction also
// becomes local to its branch (transparent cut is not supported — the
// benchmark suite never relies on it).
func expandControl(tab *term.Tab, clauses []term.Clause) []term.Clause {
	e := &expander{tab: tab, out: make([]term.Clause, 0, len(clauses))}
	for _, c := range clauses {
		e.clause(c)
	}
	return e.out
}

// ExpandedProgram returns the program after control-construct expansion
// — the clause-level view the compiled code implements. Source-level
// analyzers (internal/baseline) use it to see the same program the
// abstract machine analyzes. Expansion is deterministic, so auxiliary
// predicate names here match those in the compiled module.
func ExpandedProgram(tab *term.Tab, prog *term.Program) (*term.Program, error) {
	expanded := expandControl(tab, prog.Clauses)
	if len(expanded) == len(prog.Clauses) {
		return prog, nil
	}
	return term.NewProgram(expanded)
}

type expander struct {
	tab  *term.Tab
	out  []term.Clause
	next int
}

// clause expands one clause. A clause without control constructs is
// passed through as the same clause object, so a predicate's expanded
// clauses stay the parsed ones (Link compares them by identity).
func (e *expander) clause(c term.Clause) {
	body := c.Body
	for i, g := range c.Body {
		ng := e.goal(g)
		if ng == g {
			continue
		}
		if &body[0] == &c.Body[0] {
			body = append([]*term.Term(nil), c.Body...)
		}
		body[i] = ng
	}
	e.out = append(e.out, term.Clause{Head: c.Head, Body: body})
}

// goal rewrites one body goal, emitting auxiliary clauses as needed.
func (e *expander) goal(g *term.Term) *term.Term {
	fn, ok := term.Indicator(g)
	if !ok {
		return g
	}
	switch {
	case fn.Name == e.tab.Intern(";") && fn.Arity == 2:
		// If-then-else when the left operand is C -> T.
		l := g.Args[0]
		if lf, lok := term.Indicator(l); lok && lf.Name == e.tab.Intern("->") && lf.Arity == 2 {
			return e.emitAux("$ite", g, [][]*term.Term{
				append(append(e.conj(l.Args[0]), term.MkAtom(e.tab.Cut)), e.conj(l.Args[1])...),
				e.conj(g.Args[1]),
			})
		}
		return e.emitAux("$or", g, [][]*term.Term{
			e.conj(g.Args[0]),
			e.conj(g.Args[1]),
		})
	case fn.Name == e.tab.Intern("->") && fn.Arity == 2:
		// A bare if-then (no else): fails when the condition fails.
		return e.emitAux("$ite", g, [][]*term.Term{
			append(append(e.conj(g.Args[0]), term.MkAtom(e.tab.Cut)), e.conj(g.Args[1])...),
		})
	case fn.Name == e.tab.Intern("\\+") && fn.Arity == 1:
		return e.emitAux("$not", g, [][]*term.Term{
			append(e.conj(g.Args[0]), term.MkAtom(e.tab.Cut), term.MkAtom(e.tab.Fail)),
			nil,
		})
	default:
		return g
	}
}

// conj flattens a conjunction into a goal list, recursively expanding
// nested control constructs.
func (e *expander) conj(tm *term.Term) []*term.Term {
	comma := term.Functor{Name: e.tab.Comma, Arity: 2}
	var out []*term.Term
	var walk func(t *term.Term)
	walk = func(t *term.Term) {
		if t.Kind == term.KStruct && t.Fn == comma {
			walk(t.Args[0])
			walk(t.Args[1])
			return
		}
		out = append(out, e.goal(t))
	}
	walk(tm)
	return out
}

// emitAux creates the auxiliary predicate for construct g with the given
// clause bodies and returns the replacement call.
func (e *expander) emitAux(kind string, g *term.Term, bodies [][]*term.Term) *term.Term {
	vars := collectVars(g)
	e.next++
	name := fmt.Sprintf("%s%d", kind, e.next)
	fn := e.tab.Func(name, len(vars))

	for _, body := range bodies {
		// Each clause shares the construct's variables through the head.
		head := term.MkStruct(fn, varTerms(vars)...)
		e.out = append(e.out, term.Clause{Head: head, Body: body})
	}
	return term.MkStruct(fn, varTerms(vars)...)
}

func collectVars(tm *term.Term) []*term.VarRef {
	seen := make(map[*term.VarRef]bool)
	var out []*term.VarRef
	var walk func(t *term.Term)
	walk = func(t *term.Term) {
		switch t.Kind {
		case term.KVar:
			if !seen[t.Ref] {
				seen[t.Ref] = true
				out = append(out, t.Ref)
			}
		case term.KStruct:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(tm)
	return out
}

func varTerms(refs []*term.VarRef) []*term.Term {
	out := make([]*term.Term, len(refs))
	for i, r := range refs {
		out[i] = &term.Term{Kind: term.KVar, Ref: r}
	}
	return out
}
