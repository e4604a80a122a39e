package specialize_test

import (
	"fmt"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// TestDeriveMatchesBuildStatic: a program derived from the base's
// program over a linked module equals BuildStatic over that module,
// fusion masks included, after edits that leave the fusion set alone,
// add enough code to make small components cold, and remove it again.
func TestDeriveMatchesBuildStatic(t *testing.T) {
	tab := term.NewTab()
	clauses, err := parser.ParseClauses(tab, bench.WideProgramSeeded(8, 1).Source)
	if err != nil {
		t.Fatal(err)
	}
	link := func(clauses []term.Clause, base compiler.Base) (compiler.Base, []bool) {
		prog, err := term.NewProgram(clauses)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := compiler.ExpandedProgram(tab, prog)
		if err != nil {
			t.Fatal(err)
		}
		mod, copied, err := compiler.Link(tab, exp, base, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return compiler.Base{Mod: mod, Prog: exp}, copied
	}
	// One component per predicate, and the base component of each copied
	// predicate.
	comps := func(mod *wam.Module, copied []bool, baseIdx map[term.Functor]int) ([][]term.Functor, []int, map[term.Functor]int) {
		out, base, idx := make([][]term.Functor, len(mod.Order)), make([]int, len(mod.Order)), make(map[term.Functor]int)
		for i, fn := range mod.Order {
			out[i], base[i], idx[fn] = []term.Functor{fn}, -1, i
			if copied != nil && copied[i] {
				base[i] = baseIdx[fn]
			}
		}
		return out, base, idx
	}
	// A predicate with many facts of list terms: weight enough to make the
	// small components cold.
	var big strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&big, "bulk([x%d, y, z], f(a, b)).\n", i)
	}
	bulk, err := parser.ParseClauses(tab, big.String())
	if err != nil {
		t.Fatal(err)
	}
	opts := specialize.Options{Fuse: true, PreIntern: true}
	cur, _ := link(clauses, compiler.Base{})
	cs, _, idx := comps(cur.Mod, nil, nil)
	prog := specialize.BuildStatic(cur.Mod, cs, nil, opts)
	for _, edit := range []struct {
		name    string
		clauses []term.Clause
	}{
		{"neutral fact", append(clauses[:len(clauses):len(clauses)], clauses[len(clauses)-1])},
		{"bulk added", append(clauses[:len(clauses):len(clauses)], bulk...)},
		{"bulk removed", clauses},
	} {
		next, copied := link(edit.clauses, cur)
		ncs, base, nidx := comps(next.Mod, copied, idx)
		derived := prog.Derive(next.Mod, ncs, nil, base)
		want := specialize.BuildStatic(next.Mod, ncs, nil, opts)
		if got, want := specialize.Disasm(tab, derived), specialize.Disasm(tab, want); got != want {
			t.Fatalf("%s: derived program differs from BuildStatic", edit.name)
		}
		cur, prog, idx = next, derived, nidx
	}
}
