package backward

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/cache"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

func build(t *testing.T, src string) (*term.Tab, *wam.Module, *term.Program) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, exp, err := compiler.CompileExpanded(tab, prog, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tab, mod, exp
}

func analyzeBwd(t *testing.T, src string, goals ...string) (*term.Tab, *Result) {
	t.Helper()
	tab, mod, prog := build(t, src)
	cfg := Config{}
	for _, g := range goals {
		cfg.Goals = append(cfg.Goals, indicator(t, tab, g))
	}
	res, err := NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), prog, cfg)
	if err != nil {
		t.Fatalf("backward analyze: %v", err)
	}
	return tab, res
}

func indicator(t *testing.T, tab *term.Tab, s string) term.Functor {
	t.Helper()
	i := strings.LastIndex(s, "/")
	if i < 0 {
		t.Fatalf("bad indicator %q", s)
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		t.Fatalf("bad indicator %q: %v", s, err)
	}
	return tab.Func(s[:i], n)
}

func demandString(t *testing.T, tab *term.Tab, res *Result, name string, arity int) string {
	t.Helper()
	d, ok := res.DemandFor(tab.Func(name, arity))
	if !ok {
		t.Fatalf("%s/%d not visited", name, arity)
	}
	return demandText(tab, d)
}

// TestQsortDemands: the paper's quicksort with difference lists. The
// first argument is consumed (partition and the heads destructure it),
// so its weakest demand is nonvar; the accumulator pair is produced.
func TestQsortDemands(t *testing.T) {
	p, _ := bench.ByName("qsort")
	tab, res := analyzeBwd(t, p.Source, "qsort/3")
	if got := demandString(t, tab, res, "qsort", 3); got != "qsort(nv, any, any)" {
		t.Errorf("qsort demand = %s", got)
	}
	if got := demandString(t, tab, res, "partition", 4); got != "partition(nv, any, any, any)" {
		t.Errorf("partition demand = %s", got)
	}
	if res.Steps == 0 || res.Iterations == 0 {
		t.Errorf("missing accounting: steps=%d iterations=%d", res.Steps, res.Iterations)
	}
}

// TestNreverseDemands: concatenate demands a nonvar first argument
// (both clauses destructure it, and a variable cannot be shown to
// reach either), while nreverse itself is a generator — an unbound
// first argument still succeeds through the base clause, so its
// weakest demand is unconstrained.
func TestNreverseDemands(t *testing.T) {
	p, _ := bench.ByName("nreverse")
	tab, res := analyzeBwd(t, p.Source)
	if got := demandString(t, tab, res, "nreverse", 2); got != "nreverse(any, any)" {
		t.Errorf("nreverse demand = %s", got)
	}
	if got := demandString(t, tab, res, "concatenate", 3); got != "concatenate(nv, any, any)" {
		t.Errorf("concatenate demand = %s", got)
	}
	if got := demandString(t, tab, res, "main", 0); got != "main" {
		t.Errorf("main demand = %s", got)
	}
}

// TestDerivOutputArgument: the deriv third argument is a binding
// template (DU+DV and friends), so it must not be demanded nonvar —
// main calls d/3 with an unbound output and must stay safe.
func TestDerivOutputArgument(t *testing.T) {
	p, _ := bench.ByName("log10")
	tab, res := analyzeBwd(t, p.Source)
	if got := demandString(t, tab, res, "d", 3); got != "d(any, any, any)" {
		t.Errorf("d/3 demand = %s", got)
	}
	if got := demandString(t, tab, res, "main", 0); got != "main" {
		t.Errorf("main demand = %s", got)
	}
}

// TestArithmeticDemand: error-freedom demands integers at arithmetic
// operands, transitively through expressions; an atom operand has no
// safe call at all.
func TestArithmeticDemand(t *testing.T) {
	tab, res := analyzeBwd(t, `
inc(X, Y) :- Y is X + 1.
scale(X, Y, Z) :- Z is (X * 100) // max(Y, 1).
broken(X) :- X is foo + 1.
cmp(X, Y) :- X < Y.
`)
	if got := demandString(t, tab, res, "inc", 2); got != "inc(int, any)" {
		t.Errorf("inc demand = %s", got)
	}
	if got := demandString(t, tab, res, "scale", 3); got != "scale(int, int, any)" {
		t.Errorf("scale demand = %s", got)
	}
	if got := demandString(t, tab, res, "broken", 1); got != "bottom" {
		t.Errorf("broken demand = %s (an atom operand must refute error-freedom)", got)
	}
	if got := demandString(t, tab, res, "cmp", 2); got != "cmp(int, int)" {
		t.Errorf("cmp demand = %s", got)
	}
}

// TestTypeTestDemands: the check family demands its tested class.
func TestTypeTestDemands(t *testing.T) {
	tab, res := analyzeBwd(t, `
need_atom(X) :- atom(X).
need_int(X) :- integer(X).
need_free(X) :- var(X).
need_bound(X) :- nonvar(X).
`)
	for _, c := range []struct{ pred, want string }{
		{"need_atom", "need_atom(atom)"},
		{"need_int", "need_int(int)"},
		{"need_free", "need_free(var)"},
		{"need_bound", "need_bound(nv)"},
	} {
		if got := demandString(t, tab, res, c.pred, 1); got != c.want {
			t.Errorf("%s demand = %s, want %s", c.pred, got, c.want)
		}
	}
}

// TestDemandPropagation: a wrapper inherits its callee's demand through
// plain argument passing, and a head structure narrows it.
func TestDemandPropagation(t *testing.T) {
	tab, res := analyzeBwd(t, `
f(X) :- g(X).
g(X) :- integer(X).
h(f(X)) :- g(X).
`)
	if got := demandString(t, tab, res, "f", 1); got != "f(int)" {
		t.Errorf("f demand = %s", got)
	}
	if got := demandString(t, tab, res, "h", 1); got != "h(f(int))" {
		t.Errorf("h demand = %s", got)
	}
}

// TestUndefinedCalleeIsBottom: calling an undefined predicate can never
// be shown safe; the demand collapses clause-wise, not program-wise.
func TestUndefinedCalleeIsBottom(t *testing.T) {
	tab, res := analyzeBwd(t, `
p(X) :- missing(X).
p(a).
q(X) :- missing(X).
`)
	// Clause 1 is unusable, clause 2 still admits an atom.
	if got := demandString(t, tab, res, "p", 1); got == "bottom" {
		t.Errorf("p demand = %s (the fact clause must survive)", got)
	}
	if got := demandString(t, tab, res, "q", 1); got != "bottom" {
		t.Errorf("q demand = %s", got)
	}
	if d, ok := res.DemandFor(tab.Func("missing", 1)); !ok || d != nil {
		t.Errorf("missing/1 = (%v, %v), want visited bottom", d, ok)
	}
}

// TestFailIsBottom: a clause containing fail contributes nothing; a
// predicate with only such clauses has no safe call.
func TestFailIsBottom(t *testing.T) {
	tab, res := analyzeBwd(t, `
never(X) :- fail.
sometimes(X) :- fail.
sometimes(a).
`)
	if got := demandString(t, tab, res, "never", 1); got != "bottom" {
		t.Errorf("never demand = %s", got)
	}
	if got := demandString(t, tab, res, "sometimes", 1); got == "bottom" {
		t.Errorf("sometimes demand = %s", got)
	}
}

// TestUnifyDemandTransfer: X = T with fresh X pushes the residual
// demand through T; with a bound head variable it demands the shape.
func TestUnifyDemandTransfer(t *testing.T) {
	tab, res := analyzeBwd(t, `
viafresh(Y) :- X = f(Y), use(X).
use(f(Z)) :- integer(Z).
shape(X) :- X = f(a).
clash(X) :- X = f(a), X = g(b).
`)
	if got := demandString(t, tab, res, "viafresh", 1); got != "viafresh(int)" {
		t.Errorf("viafresh demand = %s", got)
	}
	if got := demandString(t, tab, res, "shape", 1); got != "shape(f(atom))" {
		t.Errorf("shape demand = %s", got)
	}
	if got := demandString(t, tab, res, "clash", 1); got != "bottom" {
		t.Errorf("clash demand = %s", got)
	}
}

// TestNegationDemandsNothing: backward treats \+ G soundly — no demand
// on G's arguments, no bindings propagated out of it. The negation
// body's own demands (ground(X) would demand g) must NOT leak.
func TestNegationDemandsNothing(t *testing.T) {
	tab, res := analyzeBwd(t, `
guarded(X) :- \+ needs_int(X), use(X).
needs_int(X) :- integer(X).
use(_).
plain(X) :- needs_int(X).
`)
	// Through \+, needs_int's int demand must not reach guarded.
	if got := demandString(t, tab, res, "guarded", 1); got != "guarded(any)" {
		t.Errorf("guarded demand = %s (negation must demand nothing)", got)
	}
	// Direct call still demands.
	if got := demandString(t, tab, res, "plain", 1); got != "plain(int)" {
		t.Errorf("plain demand = %s", got)
	}
	// And no binding propagates: a later ground demand on X is not
	// discharged by the negated goal.
	tab2, res2 := analyzeBwd(t, `
g2(X) :- \+ bind(X), needs_int(X).
bind(1).
needs_int(X) :- integer(X).
`)
	if got := demandString(t, tab2, res2, "g2", 1); got != "g2(int)" {
		t.Errorf("g2 demand = %s (\\+ must not discharge the int demand)", got)
	}
}

// TestDemandCone: on a wide program a single-family goal visits only
// that family's components — the demand-driven acceptance criterion.
func TestDemandCone(t *testing.T) {
	p := bench.WideProgramSeeded(64, 0)
	tab, mod, prog := build(t, p.Source)
	res, err := NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{
		Goals: []term.Functor{tab.Func("p0_rev", 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSCCs < 300 {
		t.Fatalf("wide_64 should have hundreds of components, got %d", res.TotalSCCs)
	}
	// p0_rev's demand cone is itself plus p0_app: two components.
	if res.VisitedSCCs > 4 {
		t.Errorf("visited %d components for one family entry (total %d); cone is leaking", res.VisitedSCCs, res.TotalSCCs)
	}
	if res.VisitedSCCs*16 > res.TotalSCCs {
		t.Errorf("visited %d of %d components; not demand-driven", res.VisitedSCCs, res.TotalSCCs)
	}
	if _, ok := res.DemandFor(tab.Func("p0_rev", 2)); !ok {
		t.Error("goal predicate missing from result")
	}

	// Only the cone is hashed, and its addresses are the whole-program
	// ones: the fingerprinted set is closed under callees.
	full := res.Plan.Condensation.Fingerprint(fpFormat, planContext(4), nil, nil)
	hashed := 0
	for i, fp := range res.Plan.Fingerprints {
		if fp == "" {
			continue
		}
		hashed++
		if fp != full.Fingerprints[i] {
			t.Fatalf("component %d: cone fingerprint %s, whole-program %s", i, fp, full.Fingerprints[i])
		}
	}
	for _, idx := range res.Visited {
		if res.Plan.Fingerprints[idx] == "" {
			t.Fatalf("visited component %d left unfingerprinted", idx)
		}
	}
	if hashed*16 > res.TotalSCCs {
		t.Errorf("hashed %d of %d components for a one-family cone", hashed, res.TotalSCCs)
	}
}

// TestWarmReuse: a repeat query against the same store re-executes zero
// components, runs no forward pre-pass, and marshals byte-identically —
// the fabric-warm acceptance criterion.
func TestWarmReuse(t *testing.T) {
	p, _ := bench.ByName("qsort")
	store, err := cache.New()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store)

	tab1, mod1, prog1 := build(t, p.Source)
	cold, err := eng.Analyze(context.Background(), inc.NewCondensation(mod1), prog1, Config{Goals: []term.Functor{tab1.Func("qsort", 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ExecutedSCCs == 0 || cold.ReusedSCCs != 0 {
		t.Fatalf("cold run: executed=%d reused=%d", cold.ExecutedSCCs, cold.ReusedSCCs)
	}

	// Fresh parse/compile (fresh symbol table) — only the store carries over.
	tab2, mod2, prog2 := build(t, p.Source)
	warm, err := eng.Analyze(context.Background(), inc.NewCondensation(mod2), prog2, Config{Goals: []term.Functor{tab2.Func("qsort", 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.ExecutedSCCs != 0 {
		t.Errorf("warm run executed %d components, want 0", warm.ExecutedSCCs)
	}
	if warm.ReusedSCCs != cold.ExecutedSCCs {
		t.Errorf("warm reused %d, want %d", warm.ReusedSCCs, cold.ExecutedSCCs)
	}
	if warm.ForwardDur != 0 {
		t.Errorf("warm run paid a forward pre-pass (%v)", warm.ForwardDur)
	}
	if cold.Marshal() != warm.Marshal() {
		t.Errorf("cold/warm marshal differ:\ncold:\n%s\nwarm:\n%s", cold.Marshal(), warm.Marshal())
	}
}

// TestEditInvalidation: editing one predicate re-executes its cone only;
// untouched components are still served.
func TestEditInvalidation(t *testing.T) {
	store, _ := cache.New()
	eng := NewEngine(store)
	base := `
top(X) :- mid(X).
mid(X) :- leafa(X).
leafa(a).
other(X) :- leafb(X).
leafb(b).
`
	tab, mod, prog := build(t, base)
	goals := []term.Functor{tab.Func("top", 1), tab.Func("other", 1)}
	if _, err := eng.Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{Goals: goals}); err != nil {
		t.Fatal(err)
	}
	// Edit leafa: top's chain re-executes, other's chain is served.
	edited := strings.Replace(base, "leafa(a).", "leafa(aa).", 1)
	tab2, mod2, prog2 := build(t, edited)
	goals2 := []term.Functor{tab2.Func("top", 1), tab2.Func("other", 1)}
	res, err := eng.Analyze(context.Background(), inc.NewCondensation(mod2), prog2, Config{Goals: goals2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecutedSCCs != 3 {
		t.Errorf("executed %d components after one-leaf edit, want 3 (leafa+mid+top)", res.ExecutedSCCs)
	}
	if res.ReusedSCCs != 2 {
		t.Errorf("reused %d components, want 2 (leafb+other)", res.ReusedSCCs)
	}
}

// TestCorruptRecordIsMiss: a damaged cache record decodes as a miss and
// is rewritten, never an error or a wrong answer.
func TestCorruptRecordIsMiss(t *testing.T) {
	p, _ := bench.ByName("qsort")
	store, _ := cache.New()
	eng := NewEngine(store)
	tab, mod, prog := build(t, p.Source)
	goals := []term.Functor{tab.Func("qsort", 3)}
	cold, err := eng.Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{Goals: goals})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range cold.Visited {
		if !cold.Plan.SCCs[idx].Undefined {
			store.Put(cache.Fingerprint(cold.Plan.Fingerprints[idx]), []byte("garbage\n"))
		}
	}
	again, err := eng.Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{Goals: goals})
	if err != nil {
		t.Fatal(err)
	}
	if again.ReusedSCCs != 0 || again.ExecutedSCCs != cold.ExecutedSCCs {
		t.Errorf("corrupt records: reused=%d executed=%d", again.ReusedSCCs, again.ExecutedSCCs)
	}
	if cold.Marshal() != again.Marshal() {
		t.Error("recovery from corrupt records changed the result")
	}
}

// TestRecordRoundTrip exercises the codec directly.
func TestRecordRoundTrip(t *testing.T) {
	tab, _, _ := build(t, "p(a).\nq(X) :- p(X).")
	_, res := analyzeBwd(t, "p(a).\nq(X) :- p(X).")
	_ = tab
	for _, idx := range res.Visited {
		scc := res.Plan.SCCs[idx]
		if scc.Undefined {
			continue
		}
		data := encodeDemands(res.Tab, scc, res.Demands)
		ds, err := decodeDemands(res.Tab, scc, data)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		for i, m := range scc.Members {
			if demandText(res.Tab, ds[i]) != demandText(res.Tab, res.Demands[m]) {
				t.Errorf("%s: decoded %s, stored %s", res.Tab.FuncString(m),
					demandText(res.Tab, ds[i]), demandText(res.Tab, res.Demands[m]))
			}
		}
		if _, err := decodeDemands(res.Tab, scc, []byte("awam-bwd 1\nnonsense")); err == nil {
			t.Error("malformed record decoded successfully")
		}
	}
}

// TestUnknownGoal: demand queries for predicates outside the program
// are rejected up front.
func TestUnknownGoal(t *testing.T) {
	tab, mod, prog := build(t, "p(a).")
	_, err := NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{
		Goals: []term.Functor{tab.Func("nosuch", 2)},
	})
	if err == nil || !strings.Contains(err.Error(), "unknown goal") {
		t.Fatalf("err = %v", err)
	}
}

// TestStepLimit: the backward budget aborts with the shared sentinel.
func TestStepLimit(t *testing.T) {
	p, _ := bench.ByName("qsort")
	_, mod, prog := build(t, p.Source)
	_, err := NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), prog, Config{MaxSteps: 1})
	if !errors.Is(err, core.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

// TestCanceled: a pre-canceled context aborts with ErrCanceled.
func TestCanceled(t *testing.T) {
	p, _ := bench.ByName("qsort")
	_, mod, prog := build(t, p.Source)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewEngine(nil).Analyze(ctx, inc.NewCondensation(mod), prog, Config{})
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDefaultGoalsMain: with no goals and a main/0, the query is rooted
// at main; without one, every source predicate is a root.
func TestDefaultGoalsMain(t *testing.T) {
	_, res := analyzeBwd(t, "main :- p(a).\np(a).\nq(b).")
	tab := res.Tab
	if _, ok := res.DemandFor(tab.Func("q", 1)); ok {
		t.Error("q/1 visited from main/0 root; default goal should be main only")
	}
	_, res2 := analyzeBwd(t, "p(a).\nq(b).")
	if _, ok := res2.DemandFor(res2.Tab.Func("q", 1)); !ok {
		t.Error("q/1 not visited without main/0")
	}
}
