package awam

import (
	"strings"
	"testing"
)

const quickProg = `
main :- nrev([1,2,3,4,5], R), check(R).
nrev([], []).
nrev([X|L], R) :- nrev(L, R1), app(R1, [X], R).
app([], L, L).
app([X|L1], L2, [X|L3]) :- app(L1, L2, L3).
check([5,4,3,2,1]).
`

func TestLoadAndRun(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sys.RunMain()
	if err != nil || !ok {
		t.Fatalf("main: ok=%v err=%v", ok, err)
	}
	sol, err := sys.Run("nrev([a,b], R)")
	if err != nil {
		t.Fatal(err)
	}
	if !sol.OK || sol.Bindings["R"] != "[b, a]" {
		t.Fatalf("solution = %+v", sol)
	}
}

func TestSolutionEnumeration(t *testing.T) {
	sys, err := Load("color(red).\ncolor(green).\ncolor(blue).\n")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Run("color(C)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sol.OK {
		got = append(got, sol.Bindings["C"])
		if ok, err := sol.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if strings.Join(got, ",") != "red,green,blue" {
		t.Fatalf("solutions = %v", got)
	}
}

func TestAnalyzeFacade(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	succ, ok := a.SuccessPattern("nrev/2")
	if !ok {
		t.Fatal("nrev/2 should have a success pattern")
	}
	if succ != "nrev(list(int), list(int))" {
		t.Fatalf("nrev success = %s", succ)
	}
	modes, ok := a.Modes("nrev/2")
	if !ok || !strings.HasPrefix(modes, "nrev(") {
		t.Fatalf("modes = %q", modes)
	}
	st := a.Stats()
	if st.Exec == 0 || st.TableSize == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if cps := a.CallingPatterns("app/3"); len(cps) == 0 {
		t.Fatal("app/3 should have calling patterns")
	}
	if !strings.Contains(a.Report(), "nrev(") {
		t.Fatal("report should mention nrev")
	}
}

func TestAnalyzeOptions(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze(WithDepth(2), WithoutIndexing())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.SuccessPattern("nrev/2"); !ok {
		t.Fatal("analysis with options should still succeed")
	}
	b, err := sys.Analyze(WithEntry("app(list(g), list(g), var)"))
	if err != nil {
		t.Fatal(err)
	}
	succ, ok := b.SuccessPattern("app/3")
	if !ok || succ != "app(list(g), list(g), list(g))" {
		t.Fatalf("entry analysis = %q ok=%v", succ, ok)
	}
}

func TestOptimizeFacade(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	opt, report, err := sys.Optimize(a)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range report.Passes {
		total += p.Total
	}
	if total == 0 {
		t.Fatal("expected rewrites on ground list code")
	}
	ok, err := opt.RunMain()
	if err != nil || !ok {
		t.Fatalf("optimized main: ok=%v err=%v", ok, err)
	}
}

func TestTransformFacade(t *testing.T) {
	sys, err := Load("p(X) :- q(X).\nq(a).\n")
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.Transform()
	for _, want := range []string{"p'(X1)", "updateET(p(X))", "lookupET", "q'(X)"} {
		if !strings.Contains(tr, want) {
			t.Fatalf("transform missing %q:\n%s", want, tr)
		}
	}
}

func TestHostedFacade(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.HostedAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) == 0 || h.Steps == 0 {
		t.Fatalf("hosted result = %+v", h)
	}
}

func TestDisasmAndPredicates(t *testing.T) {
	sys, err := Load("p(a).")
	if err != nil {
		t.Fatal(err)
	}
	if sys.CodeSize() == 0 {
		t.Fatal("code size 0")
	}
	if preds := sys.Predicates(); len(preds) != 1 || preds[0] != "p/1" {
		t.Fatalf("predicates = %v", preds)
	}
	if !strings.Contains(sys.Disasm(), "get_constant a, A1") {
		t.Fatal("disassembly missing")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("p(a"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Load("is(X, X)."); err == nil {
		t.Fatal("expected compile error for builtin redefinition")
	}
	if _, err := LoadFile("/nonexistent/path.pl"); err == nil {
		t.Fatal("expected file error")
	}
}

func TestControlConstructs(t *testing.T) {
	sys, err := Load(`
		max(X, Y, Z) :- (X >= Y -> Z = X ; Z = Y).
		classify(X, neg) :- X < 0.
		classify(X, nonneg) :- \+ X < 0.
		pick(X) :- (X = a ; X = b ; X = c).
	`)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Run("max(3, 7, M)")
	if err != nil || !sol.OK || sol.Bindings["M"] != "7" {
		t.Fatalf("max via if-then-else: %+v err=%v", sol, err)
	}
	sol2, err := sys.Run("classify(5, C)")
	if err != nil || !sol2.OK || sol2.Bindings["C"] != "nonneg" {
		t.Fatalf("negation: %+v err=%v", sol2, err)
	}
	sol3, err := sys.Run("pick(X)")
	if err != nil || !sol3.OK {
		t.Fatal(err)
	}
	var picks []string
	for sol3.OK {
		picks = append(picks, sol3.Bindings["X"])
		if ok, _ := sol3.Next(); !ok {
			break
		}
	}
	if strings.Join(picks, ",") != "a,b,c" {
		t.Fatalf("disjunction solutions = %v", picks)
	}
	// Control constructs in a query goal itself.
	sol4, err := sys.Run("(1 < 2 -> R = yes ; R = no)")
	if err != nil || !sol4.OK || sol4.Bindings["R"] != "yes" {
		t.Fatalf("query-level if-then-else: %+v err=%v", sol4, err)
	}
	// The analyzer handles the expanded predicates transparently.
	a, err := sys.Analyze(WithEntry("max(int, int, var)"))
	if err != nil {
		t.Fatal(err)
	}
	succ, ok := a.SuccessPattern("max/3")
	if !ok || !strings.HasPrefix(succ, "max(") {
		t.Fatalf("analysis of if-then-else predicate: %q ok=%v", succ, ok)
	}
}

func TestStripUnreachableFacade(t *testing.T) {
	sys, err := Load(`
		main :- alive.
		alive.
		zombie :- alive.
	`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze(WithEntry("main"))
	if err != nil {
		t.Fatal(err)
	}
	stripped, removed, err := sys.StripUnreachable(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "zombie/0" {
		t.Fatalf("removed = %v", removed)
	}
	ok, err := stripped.RunMain()
	if err != nil || !ok {
		t.Fatalf("stripped main: ok=%v err=%v", ok, err)
	}
}

func TestWorklistOption(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sys.Analyze(WithStrategy(Worklist))
	if err != nil {
		t.Fatal(err)
	}
	sNaive, _ := naive.SuccessPattern("nrev/2")
	sWl, _ := wl.SuccessPattern("nrev/2")
	if sNaive != sWl {
		t.Fatalf("strategies disagree: %q vs %q", sNaive, sWl)
	}
	// The option takes effect: only the worklist re-enqueues dependents,
	// and only the naive fixpoint explores in passes.
	mw, mn := wl.Metrics(), naive.Metrics()
	if mw.Enqueues == 0 || mn.Enqueues != 0 {
		t.Fatalf("enqueues: worklist %d, naive %d; want worklist > 0, naive 0", mw.Enqueues, mn.Enqueues)
	}
	if mw.NaiveExecuted != 0 || mn.NaiveExecuted == 0 {
		t.Fatalf("naive explorations: worklist %d, naive %d; want worklist 0, naive > 0",
			mw.NaiveExecuted, mn.NaiveExecuted)
	}
}

func TestDeterminacyAndSaveFacade(t *testing.T) {
	sys, err := Load(quickProg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	det := a.Determinacy()
	if !strings.Contains(det, "det") {
		t.Fatalf("determinacy report empty:\n%s", det)
	}
	saved := a.Marshal()
	back, err := sys.LoadAnalysis(saved)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := a.SuccessPattern("nrev/2")
	s2, _ := back.SuccessPattern("nrev/2")
	if s1 != s2 {
		t.Fatalf("reloaded analysis differs: %q vs %q", s1, s2)
	}
	// The reloaded analysis still drives the optimizer.
	opt, rep, err := sys.Optimize(back, WithPasses("specialize"), WithMeasureRuns(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes[0].Total == 0 {
		t.Fatal("reloaded analysis produced no specializations")
	}
	if ok, err := opt.RunMain(); err != nil || !ok {
		t.Fatalf("optimized-from-saved run: %v %v", ok, err)
	}
	if !strings.Contains(a.CallGraphDot(), "digraph callgraph") {
		t.Fatal("call graph missing")
	}
}
