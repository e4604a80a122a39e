package domain

import (
	"math/rand"
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
