package domain

import (
	"math/rand"
	"testing"

	"awam/internal/term"
)

// checkLubPaths fails when LubPattern and the graph lub disagree on p
// and q, by PatternText or by Key. Share-free pairs take the tree path,
// so this holds the tree path to the graph one; pairs with sharing
// check that they still take the graph path.
func checkLubPaths(t *testing.T, tab *term.Tab, p, q *Pattern) {
	t.Helper()
	got := LubPattern(tab, p, q)
	want := lubGraph(tab, p, q)
	if PatternText(tab, got) != PatternText(tab, want) || got.Key() != want.Key() {
		t.Fatalf("lub of %s and %s: LubPattern gives %s, the graph lub %s",
			PatternText(tab, p), PatternText(tab, q), PatternText(tab, got), PatternText(tab, want))
	}
}

// TestLubShareFreeMatchesGraph compares the two lub paths on random
// share-free pattern pairs, raw and widened, and on shared pairs.
func TestLubShareFreeMatchesGraph(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(11))
	fn := tab.Func("p", 3)
	gen := func() *Pattern {
		args := make([]*Term, fn.Arity)
		for i := range args {
			args[i] = genAbsChains(r, tab, 4)
		}
		p := &Pattern{Fn: fn, Args: args}
		if r.Intn(2) == 0 {
			p = WidenPattern(tab, p, 1+r.Intn(3))
		}
		return p
	}
	for i := 0; i < 3000; i++ {
		checkLubPaths(t, tab, gen(), gen())
	}
	// Independent draws rarely put one functor at one position on both
	// sides, so pair each draw with a variant of itself too: the
	// pointwise struct and list joins, where nil-terminated chains of
	// different lengths meet, are what the share-free path re-implements.
	for i := 0; i < 3000; i++ {
		p := gen()
		args := make([]*Term, len(p.Args))
		for j, a := range p.Args {
			args[j] = genNear(r, tab, a)
		}
		checkLubPaths(t, tab, p, &Pattern{Fn: p.Fn, Args: args})
	}
	for i := 0; i < 500; i++ {
		checkLubPaths(t, tab, genSharedPat(r, tab), genSharedPat(r, tab))
	}
}

// genNear returns a term with t's skeleton in which each subterm is
// redrawn by genAbsChains with probability 1/3.
func genNear(r *rand.Rand, tab *term.Tab, t *Term) *Term {
	if r.Intn(3) == 0 {
		return genAbsChains(r, tab, 2)
	}
	switch t.Kind {
	case Struct:
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = genNear(r, tab, a)
		}
		return MkStructT(t.Fn, args...)
	case List:
		return MkListT(genNear(r, tab, t.Elem))
	}
	return &Term{Kind: t.Kind}
}

// FuzzLubPattern holds LubPattern to the graph lub on arbitrary pairs
// of pattern texts: share-free pairs exercise the tree path, pairs with
// sh(N, T) groups or repeated variables the dispatch to the graph path.
func FuzzLubPattern(f *testing.F) {
	for _, s := range [][2]string{
		{"p(g, var)", "p(atom, var)"},
		{"p([g|list(g)], f(int))", "p([], f(atom))"},
		{"p(list(int), h(var, nv))", "p([int|list(int)], h(g, any))"},
		{"p(f(g, [a]), empty)", "p(f(var, list(any)), const)"},
		{"p([g, g, g], [])", "p([g], list(g))"},
		{"p(f([g]), [g])", "p(f([atom, int]), [atom, int])"},
		{"p(sh(1, var), sh(1, var))", "p(var, var)"},
		{"p(X, f(X))", "p(g, f(var))"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		tab := term.NewTab()
		p, err := ParseAbsQuick(tab, a)
		if err != nil {
			return
		}
		q, err := ParseAbsQuick(tab, b)
		if err != nil || p.Fn != q.Fn {
			return
		}
		checkLubPaths(t, tab, p, q)
	})
}
