package parser

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awam/internal/term"
)

func mustTerm(t *testing.T, tab *term.Tab, src string) *term.Term {
	t.Helper()
	tm, err := ParseTerm(tab, src)
	if err != nil {
		t.Fatalf("ParseTerm(%q): %v", src, err)
	}
	return tm
}

func TestParseAtomsAndIntegers(t *testing.T) {
	tab := term.NewTab()
	if tm := mustTerm(t, tab, "foo"); tm.Kind != term.KAtom || tab.Name(tm.Fn.Name) != "foo" {
		t.Fatalf("foo parsed as %v", tab.Write(tm))
	}
	if tm := mustTerm(t, tab, "42"); tm.Kind != term.KInt || tm.Int != 42 {
		t.Fatalf("42 parsed as %v", tab.Write(tm))
	}
	if tm := mustTerm(t, tab, "-7"); tm.Kind != term.KInt || tm.Int != -7 {
		t.Fatalf("-7 parsed as %v", tab.Write(tm))
	}
	if tm := mustTerm(t, tab, "0'a"); tm.Kind != term.KInt || tm.Int != 'a' {
		t.Fatalf("0'a parsed as %v", tab.Write(tm))
	}
	if tm := mustTerm(t, tab, "'hello world'"); tm.Kind != term.KAtom || tab.Name(tm.Fn.Name) != "hello world" {
		t.Fatalf("quoted atom parsed as %v", tab.Write(tm))
	}
}

func TestParseVariablesShareScope(t *testing.T) {
	tab := term.NewTab()
	tm := mustTerm(t, tab, "f(X, X, Y)")
	if !term.SameVar(tm.Args[0], tm.Args[1]) {
		t.Fatal("X occurrences should share")
	}
	if term.SameVar(tm.Args[0], tm.Args[2]) {
		t.Fatal("X and Y should differ")
	}
	tm2 := mustTerm(t, tab, "f(_, _)")
	if term.SameVar(tm2.Args[0], tm2.Args[1]) {
		t.Fatal("anonymous variables must be distinct")
	}
}

func TestParseStructsAndLists(t *testing.T) {
	tab := term.NewTab()
	tm := mustTerm(t, tab, "point(1, 2)")
	if tm.Kind != term.KStruct || tm.Fn != tab.Func("point", 2) {
		t.Fatalf("parsed %v", tab.Write(tm))
	}
	l := mustTerm(t, tab, "[1, 2 | T]")
	if !tab.IsCons(l) || l.Args[0].Int != 1 {
		t.Fatalf("parsed %v", tab.Write(l))
	}
	if got := tab.Write(l); got != "[1, 2|T]" {
		t.Fatalf("list round trip = %q", got)
	}
	if tm := mustTerm(t, tab, "[]"); !tab.IsNil(tm) {
		t.Fatal("[] not parsed as nil")
	}
}

func TestParseStrings(t *testing.T) {
	tab := term.NewTab()
	tm := mustTerm(t, tab, `"AB"`)
	if !tab.IsCons(tm) || tm.Args[0].Int != 'A' || tm.Args[1].Args[0].Int != 'B' {
		t.Fatalf("string parsed as %v", tab.Write(tm))
	}
	if !tab.IsNil(tm.Args[1].Args[1]) {
		t.Fatal("string list not nil-terminated")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	tab := term.NewTab()
	cases := map[string]string{
		"1+2*3":         "1 + 2 * 3",
		"(1+2)*3":       "(1 + 2) * 3",
		"1-2-3":         "1 - 2 - 3", // yfx: ((1-2)-3)
		"X is Y+1":      "X is Y + 1",
		"a = b":         "a = b",
		"X =\\= Y+N":    "X =\\= Y + N",
		"2 ^ 3 ^ 4":     "2 ^ 3 ^ 4", // xfy
		"- (1)":         "-1",
		"f(a, (b, c))":  "f(a, ','(b, c))",
		"log(log(x))":   "log(log(x))",
		"20*D1 < 21*D2": "20 * D1 < 21 * D2",
	}
	for src, want := range cases {
		tm := mustTerm(t, tab, src)
		if got := tab.Write(tm); got != want {
			t.Errorf("ParseTerm(%q) wrote %q, want %q", src, got, want)
		}
	}
}

func TestYfxAssociativity(t *testing.T) {
	tab := term.NewTab()
	tm := mustTerm(t, tab, "1-2-3")
	// ((1-2)-3): left arg is the nested struct.
	if tm.Args[0].Kind != term.KStruct {
		t.Fatalf("1-2-3 parsed right-associative: %v", tab.Write(tm))
	}
}

func TestXfyAssociativity(t *testing.T) {
	tab := term.NewTab()
	tm := mustTerm(t, tab, "a, b, c")
	// ','(a, ','(b, c)): right arg nested.
	if tm.Args[1].Kind != term.KStruct {
		t.Fatalf("conjunction parsed left-associative: %v", tab.Write(tm))
	}
}

func TestReadClauses(t *testing.T) {
	tab := term.NewTab()
	src := `
		% derivative of sums
		d(U+V, X, DU+DV) :- !, d(U, X, DU), d(V, X, DV).
		d(X, X, 1) :- !.
		d(_, _, 0).
	`
	clauses, err := ParseClauses(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 3 {
		t.Fatalf("got %d clauses", len(clauses))
	}
	if got := len(clauses[0].Body); got != 3 {
		t.Fatalf("clause 1 body has %d goals", got)
	}
	if clauses[0].Body[0].Fn.Name != tab.Cut {
		t.Fatal("first body goal should be cut")
	}
	if len(clauses[2].Body) != 0 {
		t.Fatal("fact should have empty body")
	}
}

func TestDirectivesAreDropped(t *testing.T) {
	tab := term.NewTab()
	clauses, err := ParseClauses(tab, ":- main.\nfoo(a).\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 1 {
		t.Fatalf("got %d clauses, want 1", len(clauses))
	}
}

func TestParseGoalSharedScope(t *testing.T) {
	tab := term.NewTab()
	goals, err := ParseGoal(tab, "p(X), q(X, Y), r(Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(goals) != 3 {
		t.Fatalf("got %d goals", len(goals))
	}
	if !term.SameVar(goals[0].Args[0], goals[1].Args[0]) {
		t.Fatal("X must be shared across goals")
	}
}

func TestParseErrors(t *testing.T) {
	tab := term.NewTab()
	for _, src := range []string{"f(", "[1, 2", "f(a) g", "'unterminated", `"open`, "1 +", ")"} {
		if _, err := ParseTerm(tab, src); err == nil {
			t.Errorf("ParseTerm(%q): expected error", src)
		}
	}
}

func TestClauseErrors(t *testing.T) {
	tab := term.NewTab()
	for _, src := range []string{"3.", "X :- a.", "p(a) :- q(b)"} {
		if _, err := ParseClauses(tab, src); err == nil {
			t.Errorf("ParseClauses(%q): expected error", src)
		}
	}
}

func TestComments(t *testing.T) {
	tab := term.NewTab()
	clauses, err := ParseClauses(tab, "a. /* block\ncomment */ b. % line\nc.")
	if err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 3 {
		t.Fatalf("got %d clauses", len(clauses))
	}
}

// genTerm builds a random ground-ish term for the write/parse round trip.
func genTerm(r *rand.Rand, depth int, tab *term.Tab) *term.Term {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return term.MkInt(int64(r.Intn(1000)))
		case 1:
			return term.MkAtom(tab.Intern(randomName(r)))
		default:
			return term.NewVar("V" + randomName(r))
		}
	}
	switch r.Intn(4) {
	case 0:
		n := r.Intn(3) + 1
		args := make([]*term.Term, n)
		for i := range args {
			args[i] = genTerm(r, depth-1, tab)
		}
		return term.MkStruct(tab.Func(randomName(r), n), args...)
	case 1:
		n := r.Intn(3)
		elems := make([]*term.Term, n)
		for i := range elems {
			elems[i] = genTerm(r, depth-1, tab)
		}
		return term.MkList(tab, elems, nil)
	default:
		return genTerm(r, 0, tab)
	}
}

func randomName(r *rand.Rand) string {
	letters := "abcdefgh"
	n := r.Intn(5) + 1
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// equalModVars compares terms treating any two variables as equal when
// they occupy consistent positions.
func equalModVars(a, b *term.Term, env map[*term.VarRef]*term.VarRef) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case term.KVar:
		if prev, ok := env[a.Ref]; ok {
			return prev == b.Ref
		}
		env[a.Ref] = b.Ref
		return true
	case term.KAtom:
		return a.Fn.Name == b.Fn.Name
	case term.KInt:
		return a.Int == b.Int
	case term.KStruct:
		if a.Fn != b.Fn {
			return false
		}
		for i := range a.Args {
			if !equalModVars(a.Args[i], b.Args[i], env) {
				return false
			}
		}
		return true
	}
	return false
}

// TestWriteParseRoundTrip is the parser's core property: parse(write(t))
// is t up to variable renaming.
func TestWriteParseRoundTrip(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		tm := genTerm(r, 3, tab)
		src := tab.Write(tm)
		back, err := ParseTerm(tab, src)
		if err != nil {
			t.Logf("reparse of %q failed: %v", src, err)
			return false
		}
		if !equalModVars(tm, back, make(map[*term.VarRef]*term.VarRef)) {
			t.Logf("round trip changed %q into %q", src, tab.Write(back))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReadChunksFromBoundary: reading from any clause boundary gives
// the clauses a whole read gives from there, and a read that stops at
// a boundary ends with the clause that ends there. Errors after the
// boundary keep the positions of a whole read.
func TestReadChunksFromBoundary(t *testing.T) {
	src := "p(X) :- q(X, \"ab\").\n% note\nq(0'., [a|T]) :- r.\n:- dynamic(r/0).\n/* c */ r :- X = 'it''s', s(X).\ns(-1).\n"
	tab := term.NewTab()
	all, err := ReadChunks(tab, src, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 || !all[2].Directive || all[4].End != len(src)-1 {
		t.Fatalf("chunks %+v", all)
	}
	for i := range all {
		start := 0
		if i > 0 {
			start = all[i-1].End
		}
		got, err := ReadChunks(tab, src, start, nil)
		if err != nil {
			t.Fatalf("from %d: %v", start, err)
		}
		for j, ch := range got {
			want := all[i+j]
			if ch.End != want.End || tab.WriteClause(ch.Clause) != tab.WriteClause(want.Clause) {
				t.Fatalf("from %d: chunk %d is %s ending %d, want %s ending %d", start, j,
					tab.WriteClause(ch.Clause), ch.End, tab.WriteClause(want.Clause), want.End)
			}
		}
		stopped, err := ReadChunks(tab, src, start, func(end int) bool { return end == all[i].End })
		if err != nil || len(stopped) != 1 {
			t.Fatalf("from %d: stop read %d chunks, %v", start, len(stopped), err)
		}
	}
	bad := src + "t :- (a.\n"
	_, whole := ReadChunks(tab, bad, 0, nil)
	_, part := ReadChunks(tab, bad, all[2].End, nil)
	if whole == nil || part == nil || whole.Error() != part.Error() {
		t.Fatalf("whole read error %v, read from a boundary %v", whole, part)
	}
}
