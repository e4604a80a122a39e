package domain

import (
	"math/rand"
	"sync"
	"testing"

	"awam/internal/term"
)

// genSharedAbs builds a random abstract term whose open nodes may carry
// share groups drawn from a small alphabet — small enough that
// independently generated patterns collide often, exercising both sides
// of the iff-property below.
func genSharedAbs(r *rand.Rand, tab *term.Tab, depth int) *Term {
	t := genAbs(r, tab, depth)
	var decorate func(t *Term) *Term
	decorate = func(t *Term) *Term {
		c := *t
		if c.Kind.Open() && r.Intn(3) == 0 {
			c.Share = 1 + r.Intn(3)
		}
		switch c.Kind {
		case Struct:
			args := make([]*Term, len(c.Args))
			for i, a := range c.Args {
				args[i] = decorate(a)
			}
			c.Args = args
		case List:
			c.Elem = decorate(c.Elem)
		}
		return &c
	}
	return decorate(t)
}

func genSharedPat(r *rand.Rand, tab *term.Tab) *Pattern {
	fn := tab.Func("p", 2)
	p := &Pattern{Fn: fn, Args: []*Term{genSharedAbs(r, tab, 2), genSharedAbs(r, tab, 2)}}
	switch r.Intn(3) {
	case 0:
		return p
	case 1:
		// Depth-k widened, as the engine produces.
		return WidenPattern(tab, p, 1+r.Intn(3))
	default:
		return p.Canonical()
	}
}

// renameShares maps every share group through an injective renaming —
// Key() and Intern must both be invariant under it.
func renameShares(p *Pattern, shift int) *Pattern {
	var rew func(t *Term) *Term
	rew = func(t *Term) *Term {
		c := *t
		if c.Share != 0 {
			c.Share = c.Share*7 + shift
		}
		switch c.Kind {
		case Struct:
			args := make([]*Term, len(c.Args))
			for i, a := range c.Args {
				args[i] = rew(a)
			}
			c.Args = args
		case List:
			c.Elem = rew(c.Elem)
		}
		return &c
	}
	args := make([]*Term, len(p.Args))
	for i, a := range p.Args {
		args[i] = rew(a)
	}
	return &Pattern{Fn: p.Fn, Args: args}
}

// TestInternIffKey: Intern(p) == Intern(q) exactly when the patterns'
// canonical serializations agree, over randomized patterns including
// share-group renamings and depth-k widenings.
func TestInternIffKey(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(42))
	in := NewInterner()
	for trial := 0; trial < 5000; trial++ {
		p := genSharedPat(r, tab)
		var q *Pattern
		switch trial % 3 {
		case 0:
			q = genSharedPat(r, tab)
		case 1:
			q = renameShares(p, 1+r.Intn(5)) // same key by construction
		default:
			q = WidenPattern(tab, p, 2)
		}
		pid, _ := in.Intern(p)
		qid, _ := in.Intern(q)
		if got, want := pid == qid, p.Key() == q.Key(); got != want {
			t.Fatalf("trial %d: Intern equal=%v but Key equal=%v\np=%s key=%q id=%d\nq=%s key=%q id=%d",
				trial, got, want, p.String(tab), p.Key(), pid, q.String(tab), q.Key(), qid)
		}
		// The canonical representative round-trips to the same identity.
		rep := in.Pattern(pid)
		if rep.Key() != p.Key() {
			t.Fatalf("trial %d: rep key %q != %q", trial, rep.Key(), p.Key())
		}
		if rid, hit := in.Intern(rep); rid != pid || !hit {
			t.Fatalf("trial %d: rep re-intern %d (hit=%v), want %d", trial, rid, hit, pid)
		}
	}
	if pats, terms := in.Size(); pats == 0 || terms == 0 {
		t.Fatalf("interner empty after property run: %d patterns, %d terms", pats, terms)
	}
}

// TestInternBottom: nil is Bottom and stays out of the tables.
func TestInternBottom(t *testing.T) {
	in := NewInterner()
	id, hit := in.Intern(nil)
	if id != BottomID || !hit {
		t.Fatalf("Intern(nil) = %d, %v; want BottomID, true", id, hit)
	}
	if in.Pattern(BottomID) != nil {
		t.Fatal("Pattern(Bottom) not nil")
	}
	if pats, terms := in.Size(); pats != 0 || terms != 0 {
		t.Fatalf("size after bottom: %d patterns, %d terms", pats, terms)
	}
}

// TestInternOrderContract: over a shared pattern pool interned in
// several shuffled orders, each into one interner, the key → ID map is
// stable, distinct keys get distinct IDs, every rep carries its key, and
// the hit flag is false exactly on a key's first sight.
func TestInternOrderContract(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(7))
	pool := make([]*Pattern, 400)
	for i := range pool {
		pool[i] = genSharedPat(r, tab)
	}
	keys := make([]string, len(pool))
	for i, p := range pool {
		keys[i] = p.Key()
	}

	for order := int64(0); order < 4; order++ {
		in := NewInterner()
		seen := make(map[string]PatternID)
		owner := make(map[PatternID]string)
		or := rand.New(rand.NewSource(order))
		for round := 0; round < 3; round++ {
			for _, i := range or.Perm(len(pool)) {
				id, hit := in.Intern(pool[i])
				prev, known := seen[keys[i]]
				if hit != known {
					t.Fatalf("order %d: key %q hit=%t, first sight=%t", order, keys[i], hit, !known)
				}
				if known && prev != id {
					t.Fatalf("order %d: key %q interned to %d then %d", order, keys[i], prev, id)
				}
				if k, ok := owner[id]; ok && k != keys[i] {
					t.Fatalf("order %d: id %d shared by keys %q and %q", order, id, k, keys[i])
				}
				seen[keys[i]], owner[id] = id, keys[i]
				if rep := in.Pattern(id); rep.Key() != keys[i] {
					t.Fatalf("order %d: rep of id %d has key %q, want %q", order, id, rep.Key(), keys[i])
				}
			}
		}
		if pats, _ := in.Size(); pats != len(seen) {
			t.Fatalf("order %d: %d patterns interned for %d distinct keys", order, pats, len(seen))
		}
	}
}

// TestInternMappedMatchesIntern: interning a pattern through an atom map
// into another symbol table gives the ID and hit flag, in lockstep, that
// Intern of the translated copy gives, and the same canonical rep; and
// within one interner the two paths name one pattern alike.
func TestInternMappedMatchesIntern(t *testing.T) {
	from, to := term.NewTab(), term.NewTab()
	for _, name := range []string{"zz", "h", "q", "p", "f"} {
		to.Intern(name) // numbering unlike from's
	}
	r := rand.New(rand.NewSource(5))
	var atoms []term.Atom
	translate := func(a term.Atom) term.Atom {
		for int(a) >= len(atoms) {
			atoms = append(atoms, 0)
		}
		if atoms[a] == 0 {
			atoms[a] = to.Intern(from.Name(a))
		}
		return atoms[a]
	}
	var copyTerm func(t *Term) *Term
	copyTerm = func(t *Term) *Term {
		c := *t
		switch c.Kind {
		case Struct:
			c.Fn.Name = translate(c.Fn.Name)
			c.Args = make([]*Term, len(t.Args))
			for i, a := range t.Args {
				c.Args[i] = copyTerm(a)
			}
		case List:
			c.Elem = copyTerm(t.Elem)
		}
		return &c
	}
	mapped, direct := NewInterner(), NewInterner()
	for i := 0; i < 3000; i++ {
		var p *Pattern
		if i%2 == 0 {
			p = genSharedPat(r, from)
		} else {
			p = NewPattern(from.Func("q", 2), []*Term{genAbsChains(r, from, 3), genAbsChains(r, from, 3)}).Canonical()
		}
		cp := &Pattern{Fn: p.Fn, Args: make([]*Term, len(p.Args))}
		cp.Fn.Name = translate(p.Fn.Name)
		for j, a := range p.Args {
			cp.Args[j] = copyTerm(a)
		}
		id1, hit1 := mapped.InternMapped(p, atoms)
		id2, hit2 := direct.Intern(cp)
		if id1 != id2 || hit1 != hit2 {
			t.Fatalf("%s: InternMapped (%d, %t), Intern of the copy (%d, %t)", cp.String(to), id1, hit1, id2, hit2)
		}
		if mapped.Pattern(id1).Key() != cp.Key() {
			t.Fatalf("%s: InternMapped's rep has key %q", cp.String(to), mapped.Pattern(id1).Key())
		}
		if id, hit := mapped.Intern(cp); id != id1 || !hit {
			t.Fatalf("%s: Intern after InternMapped gives (%d, %t), want (%d, true)", cp.String(to), id, hit, id1)
		}
	}
}

// TestInternerClone: a clone holds every pattern of its source under
// the same ID and interns new ones above them, by Key like any
// interner. Clones of one interner used concurrently (go test -race)
// never see each other's patterns, and the source is left unchanged.
func TestInternerClone(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(7))
	src := NewInterner()
	old := make([]*Pattern, 400)
	oldIDs := make([]PatternID, len(old))
	for i := range old {
		old[i] = genSharedPat(r, tab)
		oldIDs[i], _ = src.Intern(old[i])
	}
	pats, terms := src.Size()
	// Fresh patterns for the clones, drawn up front: the generator
	// interns atoms, and each clone gets its own.
	fresh := make([][]*Pattern, 4)
	for g := range fresh {
		for i := 0; i < 400; i++ {
			fresh[g] = append(fresh[g], genSharedPat(r, tab))
		}
	}
	var wg sync.WaitGroup
	for g := range fresh {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := src.Clone()
			for _, p := range fresh[g] {
				id, _ := c.Intern(p)
				if c.Pattern(id).Key() != p.Key() {
					t.Errorf("clone %d: %s interned as %s", g, p.String(tab), c.Pattern(id).String(tab))
					return
				}
			}
			for i, p := range old {
				if id, hit := c.Intern(p); id != oldIDs[i] || !hit {
					t.Errorf("clone %d: pattern %d is %d (hit %t), want %d", g, i, id, hit, oldIDs[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	if p, tm := src.Size(); p != pats || tm != terms {
		t.Fatalf("source grew from %d/%d to %d/%d", pats, terms, p, tm)
	}
	for i, p := range old {
		if id, hit := src.Intern(p); id != oldIDs[i] || !hit {
			t.Fatalf("source pattern %d is %d (hit %t), want %d", i, id, hit, oldIDs[i])
		}
	}
}

// TestInternerAtoms: Atoms lists each functor name the interned
// patterns use, once; a clone adds the names of its own nodes and leaves
// the source's list alone.
func TestInternerAtoms(t *testing.T) {
	tab := term.NewTab()
	r := rand.New(rand.NewSource(3))
	names := func(ps []*Pattern) map[term.Atom]bool {
		out := make(map[term.Atom]bool)
		var walk func(t *Term)
		walk = func(t *Term) {
			switch t.Kind {
			case Struct:
				out[t.Fn.Name] = true
				for _, a := range t.Args {
					walk(a)
				}
			case List:
				walk(t.Elem)
			}
		}
		for _, p := range ps {
			out[p.Fn.Name] = true
			for _, a := range p.Args {
				walk(a)
			}
		}
		return out
	}
	check := func(label string, in *Interner, ps []*Pattern) {
		t.Helper()
		want := names(ps)
		got := in.Atoms()
		seen := make(map[term.Atom]bool)
		for _, a := range got {
			if seen[a] || !want[a] {
				t.Fatalf("%s: atom %s listed twice or used by no node", label, tab.Name(a))
			}
			seen[a] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: %d atoms listed, the patterns use %d", label, len(seen), len(want))
		}
	}
	var ps []*Pattern
	src := NewInterner()
	for i := 0; i < 200; i++ {
		p := genSharedPat(r, tab)
		ps = append(ps, p)
		src.Intern(p)
	}
	check("source", src, ps)
	n := len(src.Atoms())
	c := src.Clone()
	extra := NewPattern(tab.Func("only_in_clone", 1), []*Term{MkStructT(tab.Func("f_in_clone", 1), top)})
	c.Intern(extra)
	check("clone", c, append(ps, extra))
	if len(src.Atoms()) != n {
		t.Fatal("interning into a clone changed the source's atoms")
	}
}
