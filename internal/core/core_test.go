package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

func buildMod(t *testing.T, src string) (*term.Tab, *wam.Module) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tab, mod
}

func analyzeFrom(t *testing.T, tab *term.Tab, mod *wam.Module, entry string) *Result {
	t.Helper()
	cp, err := domain.ParseAbs(tab, entry)
	if err != nil {
		t.Fatalf("entry pattern: %v", err)
	}
	a := New(mod)
	res, err := a.Analyze(cp)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

func successString(t *testing.T, res *Result, tab *term.Tab, fn term.Functor) string {
	t.Helper()
	s := res.SuccessFor(fn)
	if s == nil {
		return "bottom"
	}
	return s.String(tab)
}

// TestFigure3 reproduces the paper's central example: analyzing the head
// p(a, [f(V)|L]) under the calling pattern p(atom, glist) must succeed
// with the second argument instantiated to a ground non-empty list —
// the composition of s_unify steps (1), (2.1) and (2.2) in Section 4.1
// yields [f(g)|list(g)], which the schedule-confluent uniform-list
// closure presents as [g|list(g)] (head and tail element joined).
func TestFigure3(t *testing.T) {
	tab, mod := buildMod(t, "p(a, [f(V)|L]) :- q(V, L).\nq(_, _).\n")
	res := analyzeFrom(t, tab, mod, "p(atom, list(g))")
	succ := res.SuccessFor(tab.Func("p", 2))
	if succ == nil {
		t.Fatal("p(atom, glist) should succeed")
	}
	got := succ.String(tab)
	if got != "p(atom, [g|list(g)])" {
		t.Fatalf("success pattern = %s, want p(atom, [g|list(g)])", got)
	}
}

// TestFigure3Steps checks the intermediate patterns seen by the callee:
// q must be called with V = g and L = glist.
func TestFigure3Steps(t *testing.T) {
	tab, mod := buildMod(t, "p(a, [f(V)|L]) :- q(V, L).\nq(_, _).\n")
	res := analyzeFrom(t, tab, mod, "p(atom, list(g))")
	entries := res.EntriesFor(tab.Func("q", 2))
	if len(entries) != 1 {
		t.Fatalf("expected one calling pattern for q, got %d", len(entries))
	}
	if got := entries[0].CP.String(tab); got != "q(g, list(g))" {
		t.Fatalf("q called with %s, want q(g, list(g))", got)
	}
}

// TestGetListReinterpretation is experiment E6: get_list over each
// abstract argument type (the paper's Figure 4).
func TestGetListReinterpretation(t *testing.T) {
	src := "p([H|T]) :- q(H, T).\nq(_, _).\n"
	cases := []struct {
		entry    string
		wantCall string // calling pattern of q, or "" for failure
	}{
		{"p(any)", "q(any, any)"},
		{"p(nv)", "q(any, any)"},
		{"p(g)", "q(g, g)"},
		{"p(list(g))", "q(g, list(g))"},
		{"p(list(atom))", "q(atom, list(atom))"},
		{"p(var)", "q(var, var)"},
		{"p(atom)", ""},
		{"p(int)", ""},
		{"p(const)", ""},
		{"p([])", ""},
	}
	for _, c := range cases {
		tab, mod := buildMod(t, src)
		res := analyzeFrom(t, tab, mod, c.entry)
		entries := res.EntriesFor(tab.Func("q", 2))
		if c.wantCall == "" {
			if len(entries) != 0 {
				t.Errorf("%s: get_list should fail, but q was called with %s",
					c.entry, entries[0].CP.String(tab))
			}
			continue
		}
		if len(entries) != 1 {
			t.Errorf("%s: expected one q call, got %d", c.entry, len(entries))
			continue
		}
		if got := entries[0].CP.String(tab); got != c.wantCall {
			t.Errorf("%s: q called with %s, want %s", c.entry, got, c.wantCall)
		}
	}
}

// TestGetStructGround: the paper's step 2.2 — get_structure f/1 on a g
// instance produces f(g).
func TestGetStructReinterpretation(t *testing.T) {
	src := "p(f(X)) :- q(X).\nq(_).\n"
	cases := []struct {
		entry    string
		wantCall string
	}{
		{"p(g)", "q(g)"},
		{"p(any)", "q(any)"},
		{"p(nv)", "q(any)"},
		{"p(var)", "q(var)"},
		{"p(atom)", ""},
		{"p(list(g))", ""},
		{"p(h(g))", ""}, // wrong functor
		{"p(f(atom))", "q(atom)"},
	}
	for _, c := range cases {
		tab, mod := buildMod(t, src)
		res := analyzeFrom(t, tab, mod, c.entry)
		entries := res.EntriesFor(tab.Func("q", 1))
		if c.wantCall == "" {
			if len(entries) != 0 {
				t.Errorf("%s: expected failure, q called with %s", c.entry, entries[0].CP.String(tab))
			}
			continue
		}
		if len(entries) != 1 || entries[0].CP.String(tab) != c.wantCall {
			t.Errorf("%s: q calls = %v", c.entry, entries)
		}
	}
}

// TestGetConstAbstract: get_constant against each abstract class.
func TestGetConstReinterpretation(t *testing.T) {
	src := "p(a).\n"
	cases := map[string]string{
		"p(atom)":  "p(atom)",
		"p(const)": "p(atom)",
		"p(g)":     "p(atom)",
		"p(any)":   "p(atom)",
		"p(var)":   "p(atom)",
		"p(int)":   "bottom",
		"p([])":    "bottom",
	}
	for entry, want := range cases {
		tab, mod := buildMod(t, src)
		res := analyzeFrom(t, tab, mod, entry)
		if got := successString(t, res, tab, tab.Func("p", 1)); got != want {
			t.Errorf("%s: success = %s, want %s", entry, got, want)
		}
	}
}

// TestListInference: append with unknown lists — the classic alpha-list
// result. Calling concatenate(list(g), list(g), var) must succeed with a
// glist third argument.
func TestListInference(t *testing.T) {
	src := `
concatenate([X|L1], L2, [X|L3]) :- concatenate(L1, L2, L3).
concatenate([], L, L).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "concatenate(list(g), list(g), var)")
	got := successString(t, res, tab, tab.Func("concatenate", 3))
	if got != "concatenate(list(g), list(g), list(g))" {
		t.Fatalf("append success = %s", got)
	}
}

// TestNreverseMain: full fixpoint from main/0 on the nreverse benchmark;
// nreverse must be seen to map a ground list to a ground list.
func TestNreverseMain(t *testing.T) {
	p, _ := bench.ByName("nreverse")
	tab, mod := buildMod(t, p.Source)
	a := New(mod)
	res, err := a.AnalyzeMain()
	if err != nil {
		t.Fatal(err)
	}
	succ := res.SuccessFor(tab.Func("nreverse", 2))
	if succ == nil {
		t.Fatal("nreverse has no success pattern")
	}
	got := succ.String(tab)
	if got != "nreverse(list(int), list(int))" && got != "nreverse(list(g), list(g))" {
		t.Fatalf("nreverse success = %s", got)
	}
	if res.Iterations < 2 {
		t.Fatalf("recursive list program should need >1 iteration, got %d", res.Iterations)
	}
}

// TestArithmeticNarrowing: is/2 must bind results to integer and require
// ground expressions.
func TestArithmeticNarrowing(t *testing.T) {
	src := "double(X, Y) :- Y is X + X.\n"
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "double(int, var)")
	got := successString(t, res, tab, tab.Func("double", 2))
	if got != "double(int, int)" {
		t.Fatalf("double success = %s", got)
	}
	// With an 'any' input the expression narrows to ground.
	tab2, mod2 := buildMod(t, src)
	res2 := analyzeFrom(t, tab2, mod2, "double(any, var)")
	got2 := successString(t, res2, tab2, tab2.Func("double", 2))
	if got2 != "double(g, int)" {
		t.Fatalf("double(any) success = %s", got2)
	}
}

// TestRecursionBottomFirstIteration: a predicate whose only success
// comes through recursion still converges.
func TestRecursionFixpoint(t *testing.T) {
	src := `
nat(z).
nat(s(N)) :- nat(N).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "nat(any)")
	got := successString(t, res, tab, tab.Func("nat", 1))
	// z joins s(...) at depth 4: s(s(s(nv-or-g))).
	if !strings.HasPrefix(got, "nat(") || got == "bottom" {
		t.Fatalf("nat success = %s", got)
	}
	succ := res.SuccessFor(tab.Func("nat", 1))
	if !domain.Leq(tab, succ.Args[0], domain.MkLeaf(domain.Ground)) {
		t.Fatalf("nat results should be ground, got %s", got)
	}
}

// TestFailurePropagation: a goal that always fails yields bottom and the
// caller records no success.
func TestFailurePropagation(t *testing.T) {
	src := "p(X) :- q(X).\nq(a) :- fail.\n"
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "p(any)")
	if got := successString(t, res, tab, tab.Func("p", 1)); got != "bottom" {
		t.Fatalf("p should be bottom, got %s", got)
	}
	if got := successString(t, res, tab, tab.Func("q", 1)); got != "bottom" {
		t.Fatalf("q should be bottom, got %s", got)
	}
}

// TestUndefinedPredicateIsBottom mirrors Prolog failure semantics.
func TestUndefinedPredicateIsBottom(t *testing.T) {
	src := "p(X) :- missing(X).\n"
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "p(any)")
	if got := successString(t, res, tab, tab.Func("p", 1)); got != "bottom" {
		t.Fatalf("p should be bottom, got %s", got)
	}
}

// TestSharingAcrossCall: unifying two arguments records aliasing in the
// success pattern.
func TestSharingAcrossCall(t *testing.T) {
	src := "eq(X, X).\n"
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "eq(var, var)")
	succ := res.SuccessFor(tab.Func("eq", 2))
	if succ == nil {
		t.Fatal("eq should succeed")
	}
	pairs := succ.ArgSharePairs()
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Fatalf("eq aliasing = %v (pattern %s)", pairs, succ.String(tab))
	}
}

// TestTypeTestBuiltins: integer/1, atom/1, var/1 narrowing and failure.
func TestTypeTestBuiltins(t *testing.T) {
	src := `
onlyint(X) :- integer(X).
onlyatom(X) :- atom(X).
onlyvar(X) :- var(X).
`
	cases := []struct {
		entry, want string
	}{
		{"onlyint(int)", "onlyint(int)"},
		{"onlyint(atom)", "bottom"},
		{"onlyint(any)", "onlyint(int)"},
		{"onlyint(g)", "onlyint(int)"},
		{"onlyint(var)", "bottom"},
		{"onlyatom(list(g))", "onlyatom([])"},
		{"onlyvar(nv)", "bottom"},
		{"onlyvar(var)", "onlyvar(var)"},
	}
	for _, c := range cases {
		tab, mod := buildMod(t, src)
		res := analyzeFrom(t, tab, mod, c.entry)
		fn, _ := term.Indicator(mustParse(t, tab, c.entry))
		if got := successString(t, res, tab, fn); got != c.want {
			t.Errorf("%s: success = %s, want %s", c.entry, got, c.want)
		}
	}
}

func mustParse(t *testing.T, tab *term.Tab, src string) *term.Term {
	t.Helper()
	tm, err := parser.ParseTerm(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestCutIgnoredSoundly: the analyzer must include clauses a cut would
// prune (over-approximation).
func TestCutIgnoredSoundly(t *testing.T) {
	src := `
max(X, Y, X) :- X >= Y, !.
max(_, Y, Y).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "max(int, int, var)")
	got := successString(t, res, tab, tab.Func("max", 3))
	if got != "max(g, g, g)" && got != "max(int, int, g)" && got != "max(g, g, any)" {
		// Third argument covers both clauses' outcomes.
		t.Logf("note: max success = %s", got)
	}
	succ := res.SuccessFor(tab.Func("max", 3))
	if succ == nil {
		t.Fatal("max should succeed")
	}
	if !domain.Leq(tab, succ.Args[2], domain.MkLeaf(domain.Ground)) {
		t.Fatalf("third arg should be ground after either clause: %s", got)
	}
}

// TestDeterministicReturn: repeated calls with the same pattern hit the
// memo table rather than re-exploring.
func TestMemoHits(t *testing.T) {
	src := `
p :- q(a), q(a), q(a).
q(_).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "p")
	entries := res.EntriesFor(tab.Func("q", 1))
	if len(entries) != 1 {
		t.Fatalf("q should have one calling pattern, got %d", len(entries))
	}
	if entries[0].Lookups < 2 {
		t.Fatalf("repeated calls should hit the memo, lookups = %d", entries[0].Lookups)
	}
}

// TestIndexingSelectsClausesAbstractly: with a struct-typed dispatch
// argument only matching clauses are explored; with 'any' all are.
func TestIndexingClauseSelection(t *testing.T) {
	src := `
k(f(_), struct_f).
k(h(_), struct_h).
k([], empty).
k([_|_], cons).
k(77, number).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "k(f(any), var)")
	got := successString(t, res, tab, tab.Func("k", 2))
	if got != "k(f(any), atom)" {
		t.Fatalf("struct dispatch success = %s", got)
	}
	// A list-typed argument reaches both the nil and cons clauses.
	tab2, mod2 := buildMod(t, src)
	res2 := analyzeFrom(t, tab2, mod2, "k(list(g), var)")
	succ2 := res2.SuccessFor(tab2.Func("k", 2))
	if succ2 == nil {
		t.Fatal("list dispatch should succeed")
	}
	if !domain.Leq(tab2, succ2.Args[1], domain.MkLeaf(domain.Atom)) {
		t.Fatalf("list dispatch second arg = %s", succ2.String(tab2))
	}
	// Exec counts must shrink when indexing filters clauses.
	tabAll, modAll := buildMod(t, src)
	aNoIdx := NewWith(modAll, Config{Depth: 4, Indexing: false})
	cp, _ := domain.ParseAbs(tabAll, "k(f(any), var)")
	resNoIdx, err := aNoIdx.Analyze(cp)
	if err != nil {
		t.Fatal(err)
	}
	if resNoIdx.Steps <= res.Steps {
		t.Fatalf("unindexed analysis should execute more instructions: %d vs %d",
			resNoIdx.Steps, res.Steps)
	}
}

// TestDepthRestrictionTerminates: an ever-growing recursive structure
// must converge thanks to the term-depth restriction.
func TestDepthRestrictionTerminates(t *testing.T) {
	src := `
grow(X) :- grow(s(X)).
grow(stop).
`
	tab, mod := buildMod(t, src)
	res := analyzeFrom(t, tab, mod, "grow(any)")
	if res.TableSize > 16 {
		t.Fatalf("depth restriction should bound the table, got %d entries", res.TableSize)
	}
}

// TestAnalyzeAllBenchmarks: every Table 1 benchmark analyzes to a
// fixpoint from main/0 without errors.
func TestAnalyzeAllBenchmarks(t *testing.T) {
	for _, p := range bench.Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tab, mod := buildMod(t, p.Source)
			a := New(mod)
			res, err := a.AnalyzeMain()
			if err != nil {
				t.Fatal(err)
			}
			if res.TableSize == 0 {
				t.Fatal("no calling patterns recorded")
			}
			// main/0 must be seen to succeed: every benchmark runs.
			if res.SuccessFor(tab.Func("main", 0)) == nil {
				t.Fatal("analysis claims main/0 cannot succeed")
			}
			if res.Steps == 0 {
				t.Fatal("no abstract instructions counted")
			}
		})
	}
}

// TestReportRenders smoke-tests the report output.
func TestReportRenders(t *testing.T) {
	p, _ := bench.ByName("qsort")
	tab, mod := buildMod(t, p.Source)
	res, err := New(mod).AnalyzeMain()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if !strings.Contains(rep, "qsort(") || !strings.Contains(rep, "mode") {
		t.Fatalf("report incomplete:\n%s", rep)
	}
	_ = tab
}

// TestWorklistMatchesNaive: the worklist fixpoint (the future-work
// algorithm of Section 6) agrees with the paper's naive iteration, on
// both benchmark suites — byte-identically. Both strategies converge
// to the same table (merge is a join on the widened subdomain, so the
// fixpoint is schedule-independent) and both present it through the
// same finalize pass, so Marshal output must match exactly.
func TestWorklistMatchesNaive(t *testing.T) {
	for _, p := range bench.AllPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, mod := buildMod(t, p.Source)
			naive, err := New(mod).AnalyzeMain()
			if err != nil {
				t.Fatal(err)
			}
			wlCfg := DefaultConfig()
			wlCfg.Strategy = StrategyWorklist
			wl, err := NewWith(mod, wlCfg).AnalyzeMain()
			if err != nil {
				t.Fatal(err)
			}
			if wl.TableSize == 0 {
				t.Fatal("finalized worklist table is empty")
			}
			if nm, wm := naive.Marshal(), wl.Marshal(); nm != wm {
				t.Fatalf("naive and worklist results differ\n--- naive ---\n%s--- worklist ---\n%s", nm, wm)
			}
			t.Logf("%s: naive %d steps/%d entries, worklist %d steps/%d entries",
				p.Name, naive.Steps, naive.TableSize, wl.Steps, wl.TableSize)
		})
	}
}

// TestLengthAbstract: the abstract semantics of length/2 infer listness.
func TestLengthAbstract(t *testing.T) {
	tab, mod := buildMod(t, "p(L, N) :- length(L, N).\n")
	res := analyzeFrom(t, tab, mod, "p(any, var)")
	got := successString(t, res, tab, tab.Func("p", 2))
	if got != "p(list(any), int)" {
		t.Fatalf("length abstract success = %s", got)
	}
	// A ground input list stays ground.
	tab2, mod2 := buildMod(t, "p(L, N) :- length(L, N).\n")
	res2 := analyzeFrom(t, tab2, mod2, "p(list(g), var)")
	got2 := successString(t, res2, tab2, tab2.Func("p", 2))
	if got2 != "p(list(g), int)" {
		t.Fatalf("ground list success = %s", got2)
	}
}

// TestCompareAbstract: compare/3 binds its order argument to an atom.
func TestCompareAbstract(t *testing.T) {
	tab, mod := buildMod(t, "p(O) :- compare(O, a, b).\n")
	res := analyzeFrom(t, tab, mod, "p(var)")
	got := successString(t, res, tab, tab.Func("p", 1))
	if got != "p(atom)" {
		t.Fatalf("compare abstract success = %s", got)
	}
}

// TestShareDropWidening exercises the devarify path directly: a clause
// binds two arguments to the same variable buried deeper than the depth
// restriction on one side; the surviving occurrence must widen from var
// to any (a truncated alias could instantiate it invisibly).
func TestShareDropWidening(t *testing.T) {
	tab, mod := buildMod(t, `
p(X, Y) :- mk(X, V), Y = V, q(X, Y).
mk(f(f(f(f(V)))), V).
q(_, _).
`)
	res := analyzeFrom(t, tab, mod, "p(var, var)")
	entries := res.EntriesFor(tab.Func("q", 2))
	if len(entries) == 0 {
		t.Fatal("q never called")
	}
	for _, e := range entries {
		// The second argument aliases a variable that sits at depth 5 in
		// the first argument — beyond k=4. After widening, claiming it is
		// still definitely 'var' would be unsound.
		arg2 := e.CP.Args[1]
		if arg2.Kind == domain.Var && arg2.Share == 0 {
			t.Fatalf("dropped alias left an unshared var claim: %s", e.CP.String(tab))
		}
	}
}

// TestSharePreservedWithinDepth: when the alias survives the depth
// restriction, the calling pattern keeps the definite sharing.
func TestSharePreservedWithinDepth(t *testing.T) {
	tab, mod := buildMod(t, `
p(X, Y) :- X = f(V), Y = V, q(X, Y).
q(_, _).
`)
	res := analyzeFrom(t, tab, mod, "p(var, var)")
	entries := res.EntriesFor(tab.Func("q", 2))
	if len(entries) != 1 {
		t.Fatalf("q entries = %d", len(entries))
	}
	cp := entries[0].CP
	// arg1 = f(V#1), arg2 = V#1: the inner var and arg2 share a group.
	if len(cp.ArgSharePairs()) == 0 {
		t.Fatalf("expected definite sharing in %s", cp.String(tab))
	}
}

// TestWorklistSoundnessSample re-runs a soundness check under the
// worklist strategy (the main soundness suite uses the naive one).
func TestWorklistSoundnessSample(t *testing.T) {
	p, _ := bench.ByName("qsort")
	tab, mod := buildMod(t, p.Source)
	cfg := DefaultConfig()
	cfg.Strategy = StrategyWorklist
	res, err := NewWith(mod, cfg).AnalyzeMain()
	if err != nil {
		t.Fatal(err)
	}
	succ := res.SuccessFor(tab.Func("qsort", 3))
	if succ == nil {
		t.Fatal("qsort bottom under worklist")
	}
	if !domain.Leq(tab, succ.Args[1], domain.MkLeaf(domain.Ground)) {
		t.Fatalf("qsort output should be ground: %s", succ.String(tab))
	}
}

// TestAnalyzeContextCanceled: a pre-canceled context stops the analysis
// with an error wrapping both ErrCanceled and context.Canceled, for
// every strategy.
func TestAnalyzeContextCanceled(t *testing.T) {
	p, _ := bench.ByName("zebra")
	_, mod := buildMod(t, p.Source)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{StrategyNaive, StrategyWorklist} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		a := NewWith(mod, cfg)
		_, err := a.AnalyzeAllContext(ctx)
		if err == nil {
			t.Fatalf("strategy %d: expected cancellation error", strat)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("strategy %d: error %v does not wrap ErrCanceled", strat, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %d: error %v does not wrap context.Canceled", strat, err)
		}
	}
}

// TestAnalyzeContextDeadline: an already-expired deadline aborts the
// fixpoint promptly (mid-run, via the periodic tick).
func TestAnalyzeContextDeadline(t *testing.T) {
	p, _ := bench.ByName("zebra")
	_, mod := buildMod(t, p.Source)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New(mod).AnalyzeAllContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v should wrap ErrCanceled and DeadlineExceeded", err)
	}
}

// TestConfigValidate: invalid configurations surface as errors from the
// analysis entry points instead of being clamped or panicking.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative depth", Config{Depth: -1}},
		{"negative budget", Config{MaxSteps: -5}},
		{"bad strategy", Config{Strategy: Strategy(99)}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", c.name, c.cfg)
		}
	}
	_, mod := buildMod(t, "p(a).\n")
	cfg := DefaultConfig()
	cfg.Depth = -3
	if _, err := NewWith(mod, cfg).AnalyzeMain(); err == nil {
		t.Fatal("AnalyzeMain accepted a negative depth")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
