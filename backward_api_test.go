package awam

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestBackwardFacade: the typed demand surface end to end — apiProg's
// app/3 destructures its first argument in one clause and passes it
// through in the other, rev/2 is a generator like nreverse.
func TestBackwardFacade(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.AnalyzeBackward(WithGoal("rev/2"))
	if err != nil {
		t.Fatal(err)
	}
	d, ok := b.Demand("app/3")
	if !ok {
		t.Fatal("app/3 not in the demanded cone of rev/2")
	}
	if !d.Callable || d.Call != "app(nv, any, any)" {
		t.Errorf("app/3 demand = %+v", d)
	}
	if len(d.Args) != 3 || d.Args[0].Type != TypeNonVar || d.Args[1].Type != TypeAny {
		t.Errorf("app/3 args = %+v", d.Args)
	}
	if _, ok := b.Demand("use/1"); ok {
		t.Error("use/1 is outside rev/2's cone but was visited")
	}
	all := b.Demands()
	if len(all) != len(b.Predicates()) {
		t.Errorf("Demands() has %d entries, Predicates() %d", len(all), len(b.Predicates()))
	}
	st := b.Stats()
	if st.VisitedSCCs == 0 || st.TotalSCCs < st.VisitedSCCs || st.Steps == 0 {
		t.Errorf("stats = %+v", st)
	}
	if b.Marshal() == "" || b.System() != sys {
		t.Error("Marshal or System broken")
	}
}

// TestBackwardOptionErrors pins the option-validation failures, exact
// text included, mirroring TestOptionValidationExactErrors.
func TestBackwardOptionErrors(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []BackwardOption
		want string
	}{
		{"negative depth", []BackwardOption{WithBackwardDepth(-1)},
			"awam: invalid analysis option: negative depth -1"},
		{"zero budget", []BackwardOption{WithBackwardMaxSteps(0)},
			"awam: invalid analysis option: nonpositive step budget 0"},
		{"bad indicator", []BackwardOption{WithGoal("rev")},
			`awam: invalid analysis option: goal "rev" is not a name/arity indicator`},
		{"bad arity", []BackwardOption{WithGoal("rev/x")},
			`awam: invalid analysis option: goal "rev/x" has a bad arity`},
		{"unknown goal", []BackwardOption{WithGoal("nosuch/9")},
			"awam: invalid analysis option: backward: unknown goal predicate nosuch/9"},
	}
	for _, c := range cases {
		_, err := sys.AnalyzeBackward(c.opts...)
		if !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", c.name, err)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: err = %q, want %q", c.name, err.Error(), c.want)
		}
	}
	// A failed call must not poison the system.
	if _, err := sys.AnalyzeBackward(); err != nil {
		t.Fatalf("backward analysis after failed option validation: %v", err)
	}
}

// TestBackwardBudgetAndCancel: resource failures surface as the same
// typed sentinels the forward analysis uses.
func TestBackwardBudgetAndCancel(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AnalyzeBackward(WithBackwardMaxSteps(1)); !errors.Is(err, ErrAnalysisBudget) {
		t.Errorf("tiny budget: err = %v, want ErrAnalysisBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.AnalyzeBackwardContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled: err = %v, want ErrCanceled", err)
	}
}

// TestBackwardWarmByDefault: a repeat query on the same System hits the
// private store — zero components re-executed, byte-identical demands.
func TestBackwardWarmByDefault(t *testing.T) {
	sys, err := Load(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sys.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.AnalyzeBackward()
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().ExecutedSCCs != 0 {
		t.Errorf("warm repeat executed %d components", warm.Stats().ExecutedSCCs)
	}
	if cold.Marshal() != warm.Marshal() {
		t.Error("cold and warm demand sets differ")
	}
}

// TestBackwardSharedStore: two independently loaded Systems share
// demands through one summary store, like forward analyses share
// summaries through WithSummaryCache.
func TestBackwardSharedStore(t *testing.T) {
	store, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	sys1, _ := Load(apiProg)
	cold, err := sys1.AnalyzeBackward(WithBackwardStore(store))
	if err != nil {
		t.Fatal(err)
	}
	sys2, _ := Load(apiProg)
	warm, err := sys2.AnalyzeBackward(WithBackwardStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats().ExecutedSCCs != 0 || warm.Stats().ReusedSCCs != cold.Stats().ExecutedSCCs {
		t.Errorf("shared store: cold=%+v warm=%+v", cold.Stats(), warm.Stats())
	}
	if cold.Marshal() != warm.Marshal() {
		t.Error("demand sets differ across the shared store")
	}
	// The backward records live under their own format salt: a forward
	// analysis against the same store must not be satisfied by them.
	if _, err := sys2.Analyze(WithSummaryCache(store)); err != nil {
		t.Fatalf("forward analysis over a store holding backward records: %v", err)
	}
}

// TestBackwardOptionsAreValueOptions is a lint over backward_api.go:
// every BackwardOption constructor must take at least one parameter and
// none may be a bare boolean flag — the facade convention is typed
// value options (WithStrategy(Worklist), not WithWorklist()), and the
// backward surface was born after that convention, so it gets no
// grandfathered flag options at all.
func TestBackwardOptionsAreValueOptions(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "backward_api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() {
			continue
		}
		res := fd.Type.Results
		if res == nil || len(res.List) != 1 {
			continue
		}
		id, ok := res.List[0].Type.(*ast.Ident)
		if !ok || id.Name != "BackwardOption" {
			continue
		}
		if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
			t.Errorf("%s: BackwardOption constructor with no parameters (flag-style option)", fd.Name.Name)
			continue
		}
		for _, p := range fd.Type.Params.List {
			if pid, ok := p.Type.(*ast.Ident); ok && pid.Name == "bool" {
				t.Errorf("%s: BackwardOption constructor with a bool parameter; use a typed value option", fd.Name.Name)
			}
		}
	}
}

// TestBackwardReusesExpansion: Load keeps the compiler's
// control-construct expansion on the System, and every backward query
// computes its demands over that one program instead of expanding the
// source again.
func TestBackwardReusesExpansion(t *testing.T) {
	sys, err := Load(`
main :- p(a, X), use(X).
p(X, Y) :- ( X == a -> Y = b ; Y = c ).
use(_).
`)
	if err != nil {
		t.Fatal(err)
	}
	if sys.exp == sys.prog {
		t.Fatal("the program has control constructs, yet its expansion is the source program")
	}
	for _, goal := range []string{"main/0", "p/2"} {
		b, err := sys.AnalyzeBackward(WithGoal(goal))
		if err != nil {
			t.Fatal(err)
		}
		if b.res.Program != sys.exp {
			t.Fatalf("query %s computed its demands over a fresh expansion", goal)
		}
	}
}
