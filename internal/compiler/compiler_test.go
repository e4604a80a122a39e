package compiler

import (
	"strings"
	"testing"

	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

func compileSrc(t *testing.T, src string) (*term.Tab, *wam.Module) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := Compile(tab, prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tab, mod
}

// opsOf extracts the opcode names of a predicate's first clause.
func opsOf(mod *wam.Module, p *wam.Proc) []string {
	var out []string
	for addr := p.Clauses[0]; addr < len(mod.Code); addr++ {
		ins := mod.Code[addr]
		out = append(out, mod.DisasmInstr(ins))
		if ins.Op == wam.OpProceed || ins.Op == wam.OpExecute {
			break
		}
	}
	return out
}

// TestFigure2 reproduces the paper's Figure 2: the head of
// p(a, [f(V)|L]) compiles to get_const/get_list/unify_var sequences in
// breadth-first order.
func TestFigure2(t *testing.T) {
	tab, mod := compileSrc(t, "p(a, [f(V)|L]) :- q(V, L).")
	p := mod.Proc(tab.Func("p", 2))
	if p == nil {
		t.Fatal("p/2 not compiled")
	}
	got := opsOf(mod, p)
	want := []string{
		"get_constant a, A1",
		"get_list A2",
		"unify_variable X3",     // the car, kept in a temporary (paper's X3)
		"unify_variable X4",     // L
		"get_structure f/1, A3", // the paper writes X3; A and X name the same bank
		"unify_variable X5",     // V
	}
	for i, w := range want {
		if i >= len(got) || got[i] != w {
			t.Fatalf("instruction %d = %q, want %q\nfull: %s", i, got[i], w, strings.Join(got, "\n"))
		}
	}
	// The body must pass V then L and use last-call optimization.
	rest := got[len(want):]
	joined := strings.Join(rest, "\n")
	if !strings.Contains(joined, "execute q/2") {
		t.Fatalf("body should execute q/2, got:\n%s", joined)
	}
}

func TestFactCompilesToProceed(t *testing.T) {
	tab, mod := compileSrc(t, "a.")
	p := mod.Proc(tab.Func("a", 0))
	if got := opsOf(mod, p); len(got) != 1 || got[0] != "proceed" {
		t.Fatalf("fact code = %v", got)
	}
}

func TestLastCallOptimization(t *testing.T) {
	tab, mod := compileSrc(t, "p(X) :- q(X), r(X).\nq(_).\nr(_).")
	p := mod.Proc(tab.Func("p", 1))
	got := strings.Join(opsOf(mod, p), "\n")
	if !strings.Contains(got, "allocate") {
		t.Fatalf("two-call clause must allocate:\n%s", got)
	}
	if !strings.Contains(got, "call q/1") {
		t.Fatalf("first goal must use call:\n%s", got)
	}
	if !strings.Contains(got, "deallocate\nexecute r/1") {
		t.Fatalf("last goal must deallocate+execute:\n%s", got)
	}
}

func TestPermanentVariableGoesToY(t *testing.T) {
	tab, mod := compileSrc(t, "p(X, Y) :- q(X), r(Y).\nq(_).\nr(_).")
	p := mod.Proc(tab.Func("p", 2))
	got := strings.Join(opsOf(mod, p), "\n")
	// Y crosses from head to the second goal: must live in Y.
	if !strings.Contains(got, "get_variable Y0, A2") {
		t.Fatalf("Y should be permanent:\n%s", got)
	}
	// X is only needed for the first goal: stays temporary.
	if strings.Contains(got, "get_variable Y0, A1") || strings.Contains(got, "get_variable Y1, A1") {
		t.Fatalf("X should be temporary:\n%s", got)
	}
}

func TestNeckCut(t *testing.T) {
	tab, mod := compileSrc(t, "p(X) :- !, q(X).\np(_).\nq(_).")
	p := mod.Proc(tab.Func("p", 1))
	got := strings.Join(opsOf(mod, p), "\n")
	if !strings.Contains(got, "neck_cut") {
		t.Fatalf("expected neck_cut:\n%s", got)
	}
	if strings.Contains(got, "get_level") {
		t.Fatalf("neck cut should not need get_level:\n%s", got)
	}
}

func TestDeepCut(t *testing.T) {
	tab, mod := compileSrc(t, "p(X) :- q(X), !, r(X).\nq(_).\nr(_).")
	p := mod.Proc(tab.Func("p", 1))
	got := strings.Join(opsOf(mod, p), "\n")
	if !strings.Contains(got, "get_level") || !strings.Contains(got, "cut Y") {
		t.Fatalf("expected get_level/cut:\n%s", got)
	}
}

func TestBuiltinGoal(t *testing.T) {
	tab, mod := compileSrc(t, "p(X, Y) :- Y is X + 1.")
	p := mod.Proc(tab.Func("p", 2))
	got := strings.Join(opsOf(mod, p), "\n")
	if !strings.Contains(got, "builtin is/2") {
		t.Fatalf("expected builtin is/2:\n%s", got)
	}
	if !strings.Contains(got, "put_structure +/2") {
		t.Fatalf("arith argument must be constructed:\n%s", got)
	}
}

func TestChoiceChain(t *testing.T) {
	tab, mod := compileSrc(t, "p(1).\np(2).\np(3).")
	p := mod.Proc(tab.Func("p", 1))
	if len(p.Clauses) != 3 {
		t.Fatalf("expected 3 clause addresses, got %d", len(p.Clauses))
	}
	// Entry is a switch (all const first args); the chain uses
	// try_me_else/retry_me_else/trust_me.
	if mod.Code[p.Entry].Op != wam.OpSwitchOnTerm {
		t.Fatalf("entry should be switch_on_term, got %s", mod.DisasmInstr(mod.Code[p.Entry]))
	}
	if mod.Code[p.Clauses[0]-1].Op != wam.OpTryMeElse {
		t.Fatal("clause 1 not preceded by try_me_else")
	}
	if mod.Code[p.Clauses[1]-1].Op != wam.OpRetryMeElse {
		t.Fatal("clause 2 not preceded by retry_me_else")
	}
	if mod.Code[p.Clauses[2]-1].Op != wam.OpTrustMe {
		t.Fatal("clause 3 not preceded by trust_me")
	}
	// The try_me_else of clause 1 must point at the retry_me_else.
	if got := mod.Code[p.Clauses[0]-1].L; got != p.Clauses[1]-1 {
		t.Fatalf("try_me_else target = %d, want %d", got, p.Clauses[1]-1)
	}
}

func TestSwitchOnConstTable(t *testing.T) {
	tab, mod := compileSrc(t, "p(1).\np(2).\np(3).")
	p := mod.Proc(tab.Func("p", 1))
	sw := mod.Switch(mod.Code[p.Entry])
	if sw.LC == wam.FailAddr {
		t.Fatal("constant switch missing")
	}
	tbl := mod.Code[sw.LC]
	if tbl.Op != wam.OpSwitchOnConst || len(mod.Switch(tbl).TblC) != 3 {
		t.Fatalf("expected 3-entry constant table, got %s", mod.DisasmInstr(tbl))
	}
	if mod.Switch(tbl).TblC[wam.ConstKey{IsInt: true, I: 2}] != p.Clauses[1] {
		t.Fatal("constant 2 should dispatch directly to clause 2")
	}
	if sw.LL != wam.FailAddr || sw.LS != wam.FailAddr {
		t.Fatal("list/struct switch arms should fail for all-constant heads")
	}
}

func TestVarHeadDisablesIndexing(t *testing.T) {
	tab, mod := compileSrc(t, "p(1).\np(_).")
	p := mod.Proc(tab.Func("p", 1))
	if mod.Code[p.Entry].Op == wam.OpSwitchOnTerm {
		t.Fatal("variable head argument must disable indexing")
	}
}

func TestMixedIndexBuckets(t *testing.T) {
	tab, mod := compileSrc(t,
		"p([]).\np([_|_]).\np(f(_)).\np(g(_)).\n")
	p := mod.Proc(tab.Func("p", 1))
	entry := mod.Code[p.Entry]
	if entry.Op != wam.OpSwitchOnTerm {
		t.Fatal("expected switch_on_term")
	}
	sw := mod.Switch(entry)
	if sw.LL != p.Clauses[1] {
		t.Fatal("single list clause should dispatch directly")
	}
	stbl := mod.Code[sw.LS]
	if stbl.Op != wam.OpSwitchOnStruct || len(mod.Switch(stbl).TblS) != 2 {
		t.Fatalf("expected 2-entry structure table, got %s", mod.DisasmInstr(stbl))
	}
	_ = tab
}

func TestUndefinedPredicateWarns(t *testing.T) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, "p :- q.")
	if err != nil {
		t.Fatal(err)
	}
	c := &Compiler{tab: tab, opts: DefaultOptions(), builtins: wam.Builtins(tab),
		mod: &wam.Module{Tab: tab, Procs: make(map[term.Functor]*wam.Proc)}}
	for _, f := range prog.Order {
		if err := c.compileProc(f, prog.ClausesOf(f)); err != nil {
			t.Fatal(err)
		}
	}
	c.resolveFixups()
	if len(c.Warnings) != 1 || !strings.Contains(c.Warnings[0], "q/0") {
		t.Fatalf("warnings = %v", c.Warnings)
	}
}

func TestDisjunctionExpansion(t *testing.T) {
	tab, mod := compileSrc(t, "p(X) :- (X = a ; X = b).\n")
	// The disjunction becomes an auxiliary two-clause predicate.
	found := false
	for _, fn := range mod.Order {
		name := tab.Name(fn.Name)
		if strings.HasPrefix(name, "$or") {
			found = true
			if got := len(mod.Proc(fn).Clauses); got != 2 {
				t.Fatalf("auxiliary predicate has %d clauses, want 2", got)
			}
		}
	}
	if !found {
		t.Fatal("no auxiliary disjunction predicate generated")
	}
}

func TestIfThenElseExpansion(t *testing.T) {
	tab, mod := compileSrc(t, "max(X, Y, Z) :- (X >= Y -> Z = X ; Z = Y).\n")
	found := false
	for _, fn := range mod.Order {
		if strings.HasPrefix(tab.Name(fn.Name), "$ite") {
			found = true
		}
	}
	if !found {
		t.Fatal("no auxiliary if-then-else predicate generated")
	}
}

func TestNegationExpansion(t *testing.T) {
	tab, mod := compileSrc(t, "single(X) :- \\+ pair(X).\npair(f(_, _)).\n")
	found := false
	for _, fn := range mod.Order {
		if strings.HasPrefix(tab.Name(fn.Name), "$not") {
			found = true
			if got := len(mod.Proc(fn).Clauses); got != 2 {
				t.Fatalf("negation predicate has %d clauses, want 2", got)
			}
		}
	}
	if !found {
		t.Fatal("no auxiliary negation predicate generated")
	}
}

func TestNestedControlExpansion(t *testing.T) {
	// Disjunction nested inside if-then-else branches.
	_, mod := compileSrc(t, "p(X) :- (X > 0 -> (X = 1 ; X = 2) ; X = 0).\n")
	if mod.Size() == 0 {
		t.Fatal("nested control should compile")
	}
}

func TestRejectBuiltinRedefinition(t *testing.T) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, "is(X, X).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(tab, prog); err == nil {
		t.Fatal("expected error redefining is/2")
	}
}

func TestVoidSubterm(t *testing.T) {
	tab, mod := compileSrc(t, "p(f(_, _)).")
	p := mod.Proc(tab.Func("p", 1))
	got := strings.Join(opsOf(mod, p), "\n")
	if !strings.Contains(got, "unify_void") {
		t.Fatalf("anonymous subterms should compile to unify_void:\n%s", got)
	}
}

func TestAddQuery(t *testing.T) {
	tab, mod := compileSrc(t, "p(1).\np(2).")
	goals, err := parser.ParseGoal(tab, "p(X)")
	if err != nil {
		t.Fatal(err)
	}
	fn, vars, err := AddQuery(mod, goals)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Arity != 1 || len(vars) != 1 || vars[0].Ref.Name != "X" {
		t.Fatalf("query functor %v vars %v", fn, vars)
	}
	if mod.Proc(fn) == nil {
		t.Fatal("query predicate not registered")
	}
}

func TestDisasmCoversWholeModule(t *testing.T) {
	_, mod := compileSrc(t, "p(a, [f(V)|L]) :- q(V, L).\nq(_, _).")
	text := mod.Disasm()
	if !strings.Contains(text, "p/2") || !strings.Contains(text, "get_list A2") {
		t.Fatalf("disassembly incomplete:\n%s", text)
	}
}
