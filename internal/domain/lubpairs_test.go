package domain_test

import (
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/term"
)

// TestLubShareFreeOnResults holds LubPattern's share-free path to the
// graph lub on the pattern pairs real analyses join: every two calling
// patterns, and every two success patterns, of one predicate in the
// Table 1 and wide_64 results, and the running lub a predicate summary
// accumulates over them.
func TestLubShareFreeOnResults(t *testing.T) {
	progs := append(append([]bench.Program(nil), bench.Programs...), bench.WideProgramSeeded(64, 1))
	shareFree := 0
	for _, bp := range progs {
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, bp.Source)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(mod).AnalyzeMain()
		if err != nil {
			t.Fatal(err)
		}
		byFn := make(map[term.Functor][]*domain.Pattern)
		var order []term.Functor
		for _, e := range res.Entries {
			if byFn[e.CP.Fn] == nil {
				order = append(order, e.CP.Fn)
			}
			byFn[e.CP.Fn] = append(byFn[e.CP.Fn], e.CP)
			if e.Succ != nil {
				byFn[e.CP.Fn] = append(byFn[e.CP.Fn], e.Succ)
			}
		}
		check := func(p, q *domain.Pattern) {
			t.Helper()
			if !shares(p) && !shares(q) {
				shareFree++
			}
			got := domain.LubPattern(tab, p, q)
			want := domain.LubPatternGraph(tab, p, q)
			if domain.PatternText(tab, got) != domain.PatternText(tab, want) || got.Key() != want.Key() {
				t.Fatalf("%s: lub of %s and %s: LubPattern gives %s, the graph lub %s", bp.Name,
					domain.PatternText(tab, p), domain.PatternText(tab, q),
					domain.PatternText(tab, got), domain.PatternText(tab, want))
			}
		}
		for _, fn := range order {
			pats := byFn[fn]
			acc := pats[0]
			for i, p := range pats {
				for _, q := range pats[i+1:] {
					check(p, q)
				}
				if i > 0 {
					check(acc, p)
					acc = domain.LubPattern(tab, acc, p)
				}
			}
		}
	}
	if shareFree < 1000 {
		t.Fatalf("only %d share-free pairs compared; the tree path is barely exercised", shareFree)
	}
}

// shares reports whether any argument of p carries a share group.
func shares(p *domain.Pattern) bool {
	var walk func(t *domain.Term) bool
	walk = func(t *domain.Term) bool {
		if t.Share != 0 {
			return true
		}
		for _, a := range t.Args {
			if walk(a) {
				return true
			}
		}
		return t.Kind == domain.List && walk(t.Elem)
	}
	for _, a := range p.Args {
		if walk(a) {
			return true
		}
	}
	return false
}
