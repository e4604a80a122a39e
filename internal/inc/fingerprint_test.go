package inc

import (
	"testing"

	"awam/internal/term"
)

// fpByName maps predicate spellings to their component fingerprints.
func fpByName(tab *term.Tab, p *Plan) map[string]string {
	out := make(map[string]string)
	for i, scc := range p.SCCs {
		for _, fn := range scc.Members {
			out[tab.FuncString(fn)] = p.Fingerprints[i]
		}
	}
	return out
}

const fpBase = `
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev([], []).
rev([X|Xs], Ys) :- rev(Xs, Zs), app(Zs, [X], Ys).
len([], 0).
len([_|Xs], N) :- len(Xs, M), N is M+1.
`

// TestFingerprintDirtyCone: editing one predicate changes its
// fingerprint and every (transitive) caller's, and nothing else's.
func TestFingerprintDirtyCone(t *testing.T) {
	tab1, p1 := planOf(t, fpBase)
	// Add a clause to app/3: rev/2 is a caller (dirty), len/2 is not.
	tab2, p2 := planOf(t, fpBase+"\napp(x, x, x).\n")
	fp1, fp2 := fpByName(tab1, p1), fpByName(tab2, p2)
	if fp1["app/3"] == fp2["app/3"] {
		t.Fatal("edited predicate kept its fingerprint")
	}
	if fp1["rev/2"] == fp2["rev/2"] {
		t.Fatal("caller of edited predicate kept its fingerprint")
	}
	if fp1["len/2"] != fp2["len/2"] {
		t.Fatal("unrelated predicate changed fingerprint")
	}
}

// TestFingerprintPositionIndependent: inserting a predicate ahead of
// everything shifts all absolute code addresses; relativized rendering
// must keep untouched predicates' fingerprints stable.
func TestFingerprintPositionIndependent(t *testing.T) {
	tab1, p1 := planOf(t, fpBase)
	tab2, p2 := planOf(t, "first(a).\nfirst(b).\nfirst(c).\n"+fpBase)
	fp1, fp2 := fpByName(tab1, p1), fpByName(tab2, p2)
	for _, name := range []string{"app/3", "rev/2", "len/2"} {
		if fp1[name] != fp2[name] {
			t.Fatalf("%s fingerprint changed after unrelated code shifted addresses:\n%s",
				name, p2.ProcText(mustFunc(t, tab2, name, p2)))
		}
	}
}

// mustFunc resolves "name/arity" against the plan's predicates.
func mustFunc(t *testing.T, tab *term.Tab, spelling string, p *Plan) term.Functor {
	t.Helper()
	for fn := range p.PredSCC {
		if tab.FuncString(fn) == spelling {
			return fn
		}
	}
	t.Fatalf("no predicate %s in plan", spelling)
	return term.Functor{}
}

// TestFingerprintUndefinedCallee: calling an undefined predicate yields
// a pseudo-component; defining it later changes the caller's
// fingerprint (the pseudo-fingerprint is replaced by a code hash).
func TestFingerprintUndefinedCallee(t *testing.T) {
	tab1, p1 := planOf(t, "top(X) :- ghost(X).\n")
	tab2, p2 := planOf(t, "top(X) :- ghost(X).\nghost(a).\n")
	fp1, fp2 := fpByName(tab1, p1), fpByName(tab2, p2)
	if fp1["ghost/1"] == fp2["ghost/1"] {
		t.Fatal("defining a predicate kept its pseudo-fingerprint")
	}
	if fp1["top/1"] == fp2["top/1"] {
		t.Fatal("caller fingerprint survived its callee's definition")
	}
	i := p1.PredSCC[mustFunc(t, tab1, "ghost/1", p1)]
	if !p1.SCCs[i].Undefined {
		t.Fatal("undefined callee not marked as pseudo-component")
	}
}

// TestFingerprintContextSalt: the same code under different analysis
// configurations must use different cache addresses.
func TestFingerprintContextSalt(t *testing.T) {
	tab, mod := mustCompile(t, fpBase)
	p1 := NewPlan(mod, "depth=4 indexing=true")
	p2 := NewPlan(mod, "depth=2 indexing=true")
	fp1, fp2 := fpByName(tab, p1), fpByName(tab, p2)
	for name := range fp1 {
		if fp1[name] == fp2[name] {
			t.Fatalf("%s: fingerprint ignores the configuration salt", name)
		}
	}
}

// TestFingerprintCoversCalleeCone: an edit deep in the cone propagates
// through every level above it.
func TestFingerprintCoversCalleeCone(t *testing.T) {
	base := `
a(X) :- b(X).
b(X) :- c(X).
c(a).
`
	tab1, p1 := planOf(t, base)
	tab2, p2 := planOf(t, base+"\nc(b).\n")
	fp1, fp2 := fpByName(tab1, p1), fpByName(tab2, p2)
	for _, name := range []string{"a/1", "b/1", "c/1"} {
		if fp1[name] == fp2[name] {
			t.Fatalf("%s fingerprint missed an edit in its cone", name)
		}
	}
}

// TestPartialFingerprintKeepsNothing: a partial pass (roots) over a
// condensation with no memo for its context hashes the roots' cone to
// the whole plan's fingerprints and leaves no memo behind.
func TestPartialFingerprintKeepsNothing(t *testing.T) {
	tab, mod := mustCompile(t, fpBase)
	c := NewCondensation(mod)
	part := c.Fingerprint(fpFormat, "partial", nil, []int{c.PredSCC[tab.Func("rev", 2)]})
	if len(c.memo) != 0 {
		t.Fatal("a partial pass kept a memo")
	}
	whole := NewCondensation(mod).Fingerprint(fpFormat, "partial", nil, nil)
	hashed := 0
	for i, fp := range part.Fingerprints {
		if fp != "" {
			hashed++
			if fp != whole.Fingerprints[i] {
				t.Fatalf("component %d: partial fingerprint differs from the whole plan's", i)
			}
		}
	}
	if hashed != 2 || part.Hashed != 2 { // rev/2 and app/3
		t.Fatalf("partial pass fingerprinted %d components, hashed %d; want rev/2 and app/3", hashed, part.Hashed)
	}
}
