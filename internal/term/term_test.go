package term

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternIsStable(t *testing.T) {
	tab := NewTab()
	a := tab.Intern("foo")
	b := tab.Intern("foo")
	if a != b {
		t.Fatalf("Intern not stable: %d vs %d", a, b)
	}
	if tab.Name(a) != "foo" {
		t.Fatalf("Name(%d) = %q", a, tab.Name(a))
	}
}

func TestInternDistinct(t *testing.T) {
	tab := NewTab()
	if tab.Intern("foo") == tab.Intern("bar") {
		t.Fatal("distinct names interned to same atom")
	}
}

func TestWellKnownAtoms(t *testing.T) {
	tab := NewTab()
	if tab.Name(tab.Nil) != "[]" || tab.Name(tab.Dot) != "." || tab.Name(tab.Cut) != "!" {
		t.Fatal("well-known atoms misregistered")
	}
}

func TestInternPropertyRoundTrip(t *testing.T) {
	tab := NewTab()
	f := func(s string) bool { return tab.Name(tab.Intern(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMkStructArityPanics(t *testing.T) {
	tab := NewTab()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	MkStruct(tab.Func("f", 2), MkInt(1))
}

func TestMkStructZeroArityIsAtom(t *testing.T) {
	tab := NewTab()
	tm := MkStruct(tab.Func("a", 0))
	if tm.Kind != KAtom {
		t.Fatalf("zero-arity struct should be an atom, got kind %d", tm.Kind)
	}
}

func TestMkListAndWrite(t *testing.T) {
	tab := NewTab()
	l := MkList(tab, []*Term{MkInt(1), MkInt(2), MkInt(3)}, nil)
	if got := tab.Write(l); got != "[1, 2, 3]" {
		t.Fatalf("Write list = %q", got)
	}
	partial := MkList(tab, []*Term{MkInt(1)}, NewVar("T"))
	if got := tab.Write(partial); got != "[1|T]" {
		t.Fatalf("Write partial list = %q", got)
	}
}

func TestWriteOperators(t *testing.T) {
	tab := NewTab()
	x := NewVar("X")
	plus := MkStruct(tab.Func("+", 2), x, MkInt(1))
	times := MkStruct(tab.Func("*", 2), plus, MkInt(2))
	if got := tab.Write(times); got != "(X + 1) * 2" {
		t.Fatalf("Write = %q", got)
	}
	// Left-associative chains need no parentheses.
	chain := MkStruct(tab.Func("-", 2), MkStruct(tab.Func("-", 2), MkInt(1), MkInt(2)), MkInt(3))
	if got := tab.Write(chain); got != "1 - 2 - 3" {
		t.Fatalf("Write chain = %q", got)
	}
}

func TestWriteQuotesOddAtoms(t *testing.T) {
	tab := NewTab()
	if got := tab.Write(MkAtom(tab.Intern("hello world"))); got != "'hello world'" {
		t.Fatalf("Write = %q", got)
	}
	if got := tab.Write(MkAtom(tab.Nil)); got != "[]" {
		t.Fatalf("Write nil = %q", got)
	}
}

func TestClauseVarsOrder(t *testing.T) {
	tab := NewTab()
	x, y, z := NewVar("X"), NewVar("Y"), NewVar("Z")
	c := Clause{
		Head: MkStruct(tab.Func("p", 2), x, y),
		Body: []*Term{MkStruct(tab.Func("q", 2), y, z)},
	}
	vars := c.Vars()
	if len(vars) != 3 || vars[0].Ref != x.Ref || vars[1].Ref != y.Ref || vars[2].Ref != z.Ref {
		t.Fatalf("Vars order wrong: %v", vars)
	}
}

func TestRenameClauseFreshVars(t *testing.T) {
	tab := NewTab()
	x := NewVar("X")
	c := Clause{Head: MkStruct(tab.Func("p", 2), x, x)}
	r := RenameClause(c)
	if r.Head.Args[0].Ref == x.Ref {
		t.Fatal("rename did not freshen variable")
	}
	if r.Head.Args[0].Ref != r.Head.Args[1].Ref {
		t.Fatal("rename broke variable sharing")
	}
}

func TestEqual(t *testing.T) {
	tab := NewTab()
	a := MkStruct(tab.Func("f", 2), MkInt(1), MkAtom(tab.Intern("a")))
	b := MkStruct(tab.Func("f", 2), MkInt(1), MkAtom(tab.Intern("a")))
	if !Equal(a, b) {
		t.Fatal("structurally equal terms reported unequal")
	}
	c := MkStruct(tab.Func("f", 2), MkInt(2), MkAtom(tab.Intern("a")))
	if Equal(a, c) {
		t.Fatal("unequal terms reported equal")
	}
	if Equal(NewVar("X"), NewVar("X")) {
		t.Fatal("distinct variables reported equal")
	}
}

func TestProgramGrouping(t *testing.T) {
	tab := NewTab()
	p2 := tab.Func("p", 1)
	q0 := tab.Func("q", 0)
	clauses := []Clause{
		{Head: MkStruct(p2, MkInt(1))},
		{Head: MkAtom(q0.Name)},
		{Head: MkStruct(p2, MkInt(2))},
	}
	prog, err := NewProgram(clauses)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumPreds() != 2 {
		t.Fatalf("NumPreds = %d", prog.NumPreds())
	}
	if prog.ArgPlaces() != 1 {
		t.Fatalf("ArgPlaces = %d", prog.ArgPlaces())
	}
	if got := prog.ClausesOf(p2); len(got) != 2 {
		t.Fatalf("ClausesOf(p/1) = %d clauses", len(got))
	}
	if len(prog.Order) != 2 || prog.Order[0] != p2 {
		t.Fatalf("Order = %v", prog.Order)
	}
}

func TestProgramRejectsNonCallableHead(t *testing.T) {
	if _, err := NewProgram([]Clause{{Head: MkInt(3)}}); err == nil {
		t.Fatal("expected error for integer clause head")
	}
}

func TestIndicator(t *testing.T) {
	tab := NewTab()
	if f, ok := Indicator(MkAtom(tab.Intern("a"))); !ok || f.Arity != 0 {
		t.Fatal("Indicator of atom wrong")
	}
	if _, ok := Indicator(NewVar("X")); ok {
		t.Fatal("Indicator of var should fail")
	}
}

// TestTabConcurrentIntern interns overlapping names from several
// goroutines while others read them back: every name gets one atom, and
// the run is clean under -race.
func TestTabConcurrentIntern(t *testing.T) {
	tab := NewTab()
	const workers, names = 8, 200
	got := make([][]Atom, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("n%d", (i*7+w)%names)
				a := tab.Intern(name)
				if tab.Name(a) != name || tab.FuncString(tab.Func(name, 1)) != name+"/1" {
					t.Errorf("atom %d reads back as %q, want %q", a, tab.Name(a), name)
				}
			}
			for i := 0; i < names; i++ {
				got[w] = append(got[w], tab.Intern(fmt.Sprintf("n%d", i)))
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("n%d interned as %d and %d", i, got[0][i], got[w][i])
			}
		}
	}
}

// TestSpells: a table spells atoms as another does exactly when each
// atom is interned in both under the same name.
func TestSpells(t *testing.T) {
	a, b := NewTab(), NewTab()
	for _, n := range []string{"p", "q", "r"} {
		a.Intern(n)
		b.Intern(n)
	}
	b.Intern("s")
	atoms := []Atom{a.Intern("q"), a.Intern("p"), a.Dot}
	names := a.Names(atoms)
	if !b.Spells(atoms, names) || !a.Spells(atoms, names) {
		t.Fatal("tables with the same numbering do not spell alike")
	}
	c := NewTab()
	c.Intern("new") // numbers p, q and r one higher
	for _, n := range []string{"p", "q", "r"} {
		c.Intern(n)
	}
	if c.Spells(atoms, names) {
		t.Fatal("a renumbered table spells alike")
	}
	if NewTab().Spells(atoms, names) {
		t.Fatal("a table without the atoms spells alike")
	}
}
