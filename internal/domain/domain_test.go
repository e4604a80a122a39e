package domain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awam/internal/parser"
	"awam/internal/term"
)

// parseConcrete parses a concrete Prolog term for membership tests.
func parseConcrete(tab *term.Tab, src string) (*term.Term, error) {
	return parser.ParseTerm(tab, src)
}

func abs(t *testing.T, tab *term.Tab, src string) *Pattern {
	t.Helper()
	p, err := ParseAbs(tab, src)
	if err != nil {
		t.Fatalf("ParseAbs(%q): %v", src, err)
	}
	return p
}

func absT(t *testing.T, tab *term.Tab, src string) *Term {
	t.Helper()
	return abs(t, tab, "p("+src+")").Args[0]
}

func TestLeafOrdering(t *testing.T) {
	tab := term.NewTab()
	leq := func(a, b string) bool {
		return Leq(tab, absT(t, tab, a), absT(t, tab, b))
	}
	cases := []struct {
		a, b string
		want bool
	}{
		{"empty", "var", true},
		{"var", "any", true},
		{"var", "nv", false},
		{"var", "g", false},
		{"[]", "atom", true},
		{"atom", "const", true},
		{"int", "const", true},
		{"atom", "int", false},
		{"const", "g", true},
		{"g", "nv", true},
		{"nv", "any", true},
		{"any", "nv", false},
		{"g", "const", false},
		{"[]", "list(g)", true},
		{"list(g)", "list(any)", true},
		{"list(any)", "list(g)", false},
		{"list(g)", "g", true},
		{"list(any)", "g", false},
		{"list(any)", "nv", true},
		{"f(g)", "nv", true},
		{"f(g)", "g", true},
		{"f(any)", "g", false},
		{"f(g)", "f(any)", true},
		{"f(g)", "h(g)", false},
		{"[g|list(g)]", "list(g)", true},
		{"[g|list(g)]", "list(any)", true},
		{"[any|list(g)]", "list(g)", false},
		{"[g|var]", "list(g)", false}, // partial list is not a list type
	}
	for _, c := range cases {
		if got := leq(c.a, c.b); got != c.want {
			t.Errorf("Leq(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLubTable(t *testing.T) {
	tab := term.NewTab()
	lub := func(a, b string) string {
		return Lub(tab, absT(t, tab, a), absT(t, tab, b)).String(tab)
	}
	cases := []struct{ a, b, want string }{
		{"atom", "int", "const"},
		{"atom", "g", "g"},
		{"var", "g", "any"},
		{"var", "var", "var"},
		{"g", "nv", "nv"},
		{"f(g)", "f(any)", "f(any)"},
		{"f(g)", "h(g)", "g"},
		{"f(any)", "h(g)", "nv"},
		{"f(g)", "atom", "g"},
		// The list-inference rule (Section 3's alpha-list).
		{"[]", "[g|[]]", "list(g)"},
		{"[]", "[g|list(g)]", "list(g)"},
		{"[int|[]]", "[atom|[]]", "[const|[]]"}, // same-shape cons joins pointwise (more precise than list(const))
		{"list(g)", "[any|list(g)]", "list(any)"},
		{"[]", "list(int)", "list(int)"},
		{"[g|var]", "[]", "nv"}, // partial list cannot join into a list type
		{"list(g)", "f(g)", "g"},
		{"list(any)", "f(g)", "nv"},
	}
	for _, c := range cases {
		if got := lub(c.a, c.b); got != c.want {
			t.Errorf("Lub(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// genAbs generates a random abstract type for property tests.
func genAbs(r *rand.Rand, tab *term.Tab, depth int) *Term { return genShapes(r, tab, depth, 3) }

// genAbsChains is genAbs that also builds nil-terminated cons chains of
// one to three elements at any depth: lists of an exact length, which
// genAbs's "." structures almost never are, and which the uniform-list
// normalization must leave alone. The lub tests draw from it. The merge
// law tests (laws_test.go) keep genAbs: with these chains they fail
// (merge is not monotone next to a cons with a non-list tail, e.g.
// [g|list(g)] ⊑ [g|g], but merged with [var|[]] they give
// [any|list(any)] and [any|g]).
func genAbsChains(r *rand.Rand, tab *term.Tab, depth int) *Term { return genShapes(r, tab, depth, 4) }

// genShapes picks a node among shapes alternatives above the depth
// cut: structure, list type, leaf and, with 4, a nil-terminated chain.
func genShapes(r *rand.Rand, tab *term.Tab, depth, shapes int) *Term {
	leaves := []Kind{Empty, Var, Nil, Atom, Intg, Const, Ground, NV, Any}
	// Private nodes, not MkLeaf: some consumers decorate the generated
	// tree with Share in place, which must not touch the shared leaf
	// singletons.
	if depth <= 0 || r.Intn(3) == 0 {
		return &Term{Kind: leaves[r.Intn(len(leaves))]}
	}
	switch r.Intn(shapes) {
	case 0:
		n := r.Intn(2) + 1
		args := make([]*Term, n)
		for i := range args {
			args[i] = genShapes(r, tab, depth-1, shapes)
		}
		name := []string{"f", "h", "."}[r.Intn(3)]
		if name == "." {
			n = 2
			args = []*Term{genShapes(r, tab, depth-1, shapes), genShapes(r, tab, depth-1, shapes)}
		}
		return MkStructT(tab.Func(name, n), args...)
	case 1:
		return MkListT(genShapes(r, tab, depth-1, shapes))
	case 3:
		t := &Term{Kind: Nil}
		for n := r.Intn(3) + 1; n > 0; n-- {
			t = MkStructT(tab.ConsFunctor(), genShapes(r, tab, depth-1, shapes), t)
		}
		return t
	default:
		return &Term{Kind: leaves[r.Intn(len(leaves))]}
	}
}

func TestLatticeProperties(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 2000}

	// lub is an upper bound and commutative.
	f := func() bool {
		a := genAbs(r, tab, 3)
		b := genAbs(r, tab, 3)
		ab := Lub(tab, a, b)
		ba := Lub(tab, b, a)
		if !Leq(tab, a, ab) || !Leq(tab, b, ab) {
			t.Logf("lub not upper bound: %s ⊔ %s = %s", a.String(tab), b.String(tab), ab.String(tab))
			return false
		}
		if !Leq(tab, ab, ba) || !Leq(tab, ba, ab) {
			t.Logf("lub not commutative: %s vs %s", ab.String(tab), ba.String(tab))
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}

	// lub idempotent: a ⊔ a ≡ a.
	g := func() bool {
		a := genAbs(r, tab, 3)
		aa := Lub(tab, a, a)
		return Leq(tab, aa, a) && Leq(tab, a, aa)
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}

	// Leq reflexive and transitive on generated triples.
	h := func() bool {
		a := genAbs(r, tab, 3)
		if !Leq(tab, a, a) {
			t.Logf("Leq not reflexive on %s", a.String(tab))
			return false
		}
		b := Lub(tab, a, genAbs(r, tab, 3))
		c := Lub(tab, b, genAbs(r, tab, 3))
		// a ⊑ b and b ⊑ c by construction; check a ⊑ c.
		if !Leq(tab, a, c) {
			t.Logf("Leq not transitive: %s / %s / %s", a.String(tab), b.String(tab), c.String(tab))
			return false
		}
		return true
	}
	if err := quick.Check(h, cfg); err != nil {
		t.Error(err)
	}

	// Widening goes up and bounds depth.
	w := func() bool {
		a := genAbs(r, tab, 5)
		wa := Widen(tab, a, 3)
		if !Leq(tab, a, wa) {
			t.Logf("widen not upper: %s -> %s", a.String(tab), wa.String(tab))
			return false
		}
		return Depth(wa) <= 3
	}
	if err := quick.Check(w, cfg); err != nil {
		t.Error(err)
	}
}

func TestLubAssociativityUpToOrder(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		a := genAbs(r, tab, 3)
		b := genAbs(r, tab, 3)
		c := genAbs(r, tab, 3)
		l1 := Lub(tab, Lub(tab, a, b), c)
		l2 := Lub(tab, a, Lub(tab, b, c))
		return Leq(tab, l1, l2) && Leq(tab, l2, l1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestWidenExamples(t *testing.T) {
	tab := term.NewTab()
	deep := absT(t, tab, "f(f(f(f(f(g)))))")
	w := Widen(tab, deep, 4)
	if got := w.String(tab); got != "f(f(f(g)))" {
		t.Fatalf("Widen ground = %s", got)
	}
	deepVar := absT(t, tab, "f(f(f(f(var))))")
	w2 := Widen(tab, deepVar, 3)
	// The truncated subtree f(f(var)) is non-variable at the top, so nv
	// (not any) is the tightest sound leaf.
	if got := w2.String(tab); got != "f(f(nv))" {
		t.Fatalf("Widen with var = %s", got)
	}
	nvDeep := absT(t, tab, "f(f(h(nv)))")
	w3 := Widen(tab, nvDeep, 2)
	if got := w3.String(tab); got != "f(nv)" {
		t.Fatalf("Widen nv = %s", got)
	}
}

func TestMember(t *testing.T) {
	tab := term.NewTab()
	mk := func(src string) *term.Term {
		tm, err := parseConcrete(tab, src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return tm
	}
	cases := []struct {
		tm   string
		abs  string
		want bool
	}{
		{"a", "atom", true},
		{"a", "int", false},
		{"7", "int", true},
		{"7", "const", true},
		{"f(a)", "g", true},
		{"f(X)", "g", false},
		{"f(X)", "nv", true},
		{"X", "var", true},
		{"f(a)", "f(atom)", true},
		{"f(a)", "f(int)", false},
		{"[1,2,3]", "list(int)", true},
		{"[1,a]", "list(int)", false},
		{"[1|X]", "list(int)", false},
		{"[]", "list(int)", true},
		{"[]", "[]", true},
		{"[f(a)]", "list(g)", true},
		{"anything", "any", true},
		{"a", "empty", false},
	}
	for _, c := range cases {
		if got := Member(tab, mk(c.tm), absT(t, tab, c.abs)); got != c.want {
			t.Errorf("Member(%s, %s) = %v, want %v", c.tm, c.abs, got, c.want)
		}
	}
}

// TestMemberRespectsLub: members of a or b are members of lub(a,b).
func TestMemberRespectsLub(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(3))
	witnesses := []string{"a", "7", "[]", "f(a)", "f(X)", "X", "[1,2]", "[a|X]", "h(f(a), 1)"}
	f := func() bool {
		a := genAbs(r, tab, 3)
		b := genAbs(r, tab, 3)
		l := Lub(tab, a, b)
		for _, w := range witnesses {
			tm, err := parseConcrete(tab, w)
			if err != nil {
				return false
			}
			if (Member(tab, tm, a) || Member(tab, tm, b)) && !Member(tab, tm, l) {
				t.Logf("witness %s in %s or %s but not in lub %s", w, a.String(tab), b.String(tab), l.String(tab))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

func TestPatternKeyCanonical(t *testing.T) {
	tab := term.NewTab()
	p1 := abs(t, tab, "p(sh(3, any), sh(3, any))")
	p2 := abs(t, tab, "p(sh(8, any), sh(8, any))")
	if p1.Key() != p2.Key() {
		t.Fatal("keys should be canonical under group renaming")
	}
	p3 := abs(t, tab, "p(any, any)")
	if p1.Key() == p3.Key() {
		t.Fatal("shared and unshared patterns must have different keys")
	}
}

func TestPatternCanonicalDropsSingletons(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(sh(4, any), atom)")
	if p.Args[0].Share != 0 {
		t.Fatal("singleton share group should be dropped")
	}
}

func TestArgSharePairs(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(sh(1, any), f(sh(1, any), sh(2, g)), sh(2, g))")
	pairs := p.ArgSharePairs()
	if len(pairs) != 2 || pairs[0] != [2]int{0, 1} || pairs[1] != [2]int{1, 2} {
		t.Fatalf("ArgSharePairs = %v", pairs)
	}
}

func TestLubPatternPreservesCommonSharing(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(sh(1, g), sh(1, g))")
	q := abs(t, tab, "p(sh(1, g), sh(1, g))")
	l := LubPattern(tab, p, q)
	if l.Args[0].Share == 0 || l.Args[0].Share != l.Args[1].Share {
		t.Fatalf("common sharing lost: %s", l.String(tab))
	}
}

func TestLubPatternDropsOneSidedSharingAndWidensVar(t *testing.T) {
	tab := term.NewTab()
	// In p the two args are the same variable; in q they are distinct
	// variables. The lub must not claim definite sharing, and must widen
	// var to any (a one-sided alias can instantiate the other side).
	p := abs(t, tab, "p(sh(1, var), sh(1, var))")
	q := abs(t, tab, "p(var, var)")
	l := LubPattern(tab, p, q)
	if l.Args[0].Share != 0 && l.Args[0].Share == l.Args[1].Share {
		t.Fatalf("one-sided sharing must be dropped: %s", l.String(tab))
	}
	if l.Args[0].Kind != Any || l.Args[1].Kind != Any {
		t.Fatalf("vars with dropped sharing must widen to any: %s", l.String(tab))
	}
}

func TestLubPatternNonVarKeepsTypeOnDroppedSharing(t *testing.T) {
	tab := term.NewTab()
	// ground is closed under instantiation, so dropping one-sided
	// sharing may keep the ground type.
	p := abs(t, tab, "p(sh(1, g), sh(1, g))")
	q := abs(t, tab, "p(g, g)")
	l := LubPattern(tab, p, q)
	if l.Args[0].Kind != Ground || l.Args[1].Kind != Ground {
		t.Fatalf("ground should survive dropped sharing: %s", l.String(tab))
	}
	if l.Args[0].Share != 0 {
		t.Fatalf("sharing should be dropped: %s", l.String(tab))
	}
}

func TestLubPatternBottom(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(atom)")
	if got := LubPattern(tab, nil, p); !got.Equal(p) {
		t.Fatal("lub with bottom should return the other pattern")
	}
	if got := LubPattern(tab, p, nil); !got.Equal(p) {
		t.Fatal("lub with bottom (right) should return the other pattern")
	}
	if got := LubPattern(tab, nil, nil); got != nil {
		t.Fatal("lub of bottoms should be bottom")
	}
}

func TestLubPatternInfersListAcrossClauses(t *testing.T) {
	tab := term.NewTab()
	// nreverse's two clauses: one returns [], the other [g|list(g)].
	p := abs(t, tab, "p([])")
	q := abs(t, tab, "p([g|list(g)])")
	l := LubPattern(tab, p, q)
	if got := l.Args[0].String(tab); got != "list(g)" {
		t.Fatalf("list inference over clauses = %s", got)
	}
}

func TestLeqPattern(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(sh(1, g), sh(1, g))")
	q := abs(t, tab, "p(g, g)")
	if !LeqPattern(tab, p, q) {
		t.Fatal("more sharing should be more precise")
	}
	if LeqPattern(tab, q, p) {
		t.Fatal("unshared is not below shared")
	}
	r := abs(t, tab, "p(any, any)")
	if !LeqPattern(tab, q, r) {
		t.Fatal("g ⊑ any pointwise")
	}
}

// TestLubPatternMonotoneKeys: repeated lubbing must reach a fixpoint
// (keys eventually stabilize) — the analyzer's termination argument.
func TestLubPatternMonotoneKeys(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(99))
	fn := tab.Func("p", 2)
	genPat := func() *Pattern {
		return (&Pattern{Fn: fn, Args: []*Term{genAbs(r, tab, 2), genAbs(r, tab, 2)}}).Canonical()
	}
	for trial := 0; trial < 200; trial++ {
		acc := genPat()
		for i := 0; i < 50; i++ {
			next := LubPattern(tab, acc, genPat())
			if !LeqPattern(tab, acc, next) {
				t.Fatalf("lub not ascending: %s then %s", acc.String(tab), next.String(tab))
			}
			acc = next
		}
	}
}

func TestParseAbsErrors(t *testing.T) {
	tab := term.NewTab()
	for _, src := range []string{"3", "X", "p(sh(x, any))", "p((("} {
		if _, err := ParseAbs(tab, src); err == nil {
			t.Errorf("ParseAbs(%q): expected error", src)
		}
	}
}

// TestLubPatternIsUpperBound: the pattern-level lub dominates both
// inputs under LeqPattern, on randomly generated shared patterns.
func TestLubPatternIsUpperBound(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(17))
	fn := tab.Func("p", 3)
	gen := func() *Pattern {
		args := make([]*Term, 3)
		for i := range args {
			args[i] = genAbs(r, tab, 2)
		}
		// Inject some sharing between open leaves.
		var open []*Term
		var collect func(t *Term)
		collect = func(t *Term) {
			// Only leaf kinds: a shared composite must be the identical
			// subtree, which random generation cannot guarantee.
			if t.Kind.Open() && t.Kind != List {
				open = append(open, t)
			}
			for _, c := range t.children() {
				collect(c)
			}
		}
		for _, a := range args {
			collect(a)
		}
		// Share only leaves of the same kind: a group denotes one
		// instance and therefore has one type.
		byKind := make(map[Kind][]*Term)
		for _, o := range open {
			byKind[o.Kind] = append(byKind[o.Kind], o)
		}
		for _, group := range byKind {
			if len(group) >= 2 && r.Intn(2) == 0 {
				group[0].Share = 1
				group[1].Share = 1
				break
			}
		}
		return NewPattern(fn, args).Canonical()
	}
	for i := 0; i < 1500; i++ {
		p, q := gen(), gen()
		l := LubPattern(tab, p, q)
		if !LeqPattern(tab, p, l) || !LeqPattern(tab, q, l) {
			t.Fatalf("lub not an upper bound:\n p=%s\n q=%s\n l=%s",
				p.String(tab), q.String(tab), l.String(tab))
		}
	}
}

func TestWidenPatternIdempotent(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(23))
	fn := tab.Func("p", 2)
	for i := 0; i < 1000; i++ {
		p := NewPattern(fn, []*Term{genAbs(r, tab, 4), genAbs(r, tab, 4)}).Canonical()
		w1 := WidenPattern(tab, p, 3)
		w2 := WidenPattern(tab, w1, 3)
		if !w1.Equal(w2) {
			t.Fatalf("widen not idempotent: %s vs %s", w1.String(tab), w2.String(tab))
		}
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	tab := term.NewTab()
	p := abs(t, tab, "p(sh(1, g), sh(1, g), sh(2, any), sh(2, any))")
	c1 := p.Canonical()
	c2 := c1.Canonical()
	if c1.Key() != c2.Key() {
		t.Fatal("Canonical not idempotent")
	}
}
