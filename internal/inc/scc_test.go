package inc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

func mustCompile(t *testing.T, src string) (*term.Tab, *wam.Module) {
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

func planOf(t *testing.T, src string) (*term.Tab, *Plan) {
	t.Helper()
	tab, mod := mustCompile(t, src)
	return tab, NewPlan(mod, "depth=4 indexing=true")
}

// sccNames renders a plan's components for golden comparison:
// one "name/arity[,name/arity] -> calleeIdx[,calleeIdx]" line each,
// with "?" marking undefined pseudo-components.
func sccNames(tab *term.Tab, p *Plan) []string {
	out := make([]string, len(p.SCCs))
	for i, scc := range p.SCCs {
		names := make([]string, len(scc.Members))
		for j, fn := range scc.Members {
			names[j] = tab.FuncString(fn)
		}
		line := strings.Join(names, ",")
		if scc.Undefined {
			line += "?"
		}
		if len(scc.Callees) > 0 {
			line += fmt.Sprintf(" -> %v", scc.Callees)
		}
		out[i] = line
	}
	return out
}

// TestCondenseGolden pins the condensation of a program exercising a
// self-loop, mutual recursion, a shared callee and an undefined callee.
func TestCondenseGolden(t *testing.T) {
	tab, p := planOf(t, `
leaf(a).
selfrec([], []).
selfrec([X|Xs], [X|Ys]) :- selfrec(Xs, Ys).
even(z).
even(s(N)) :- odd(N).
odd(s(N)) :- even(N).
top(X) :- selfrec(X, _), even(X), leaf(X), ghost(X).
`)
	want := []string{
		"leaf/1",
		"selfrec/2",
		"even/1,odd/1",
		"ghost/1?",
		"top/1 -> [0 1 2 3]",
	}
	if got := sccNames(tab, p); !reflect.DeepEqual(got, want) {
		t.Fatalf("condensation:\n got %q\nwant %q", got, want)
	}
	// Reverse topological: every callee index precedes its caller.
	for i, scc := range p.SCCs {
		for _, j := range scc.Callees {
			if j >= i {
				t.Fatalf("SCC %d lists callee %d: not bottom-up", i, j)
			}
		}
	}
}

// TestCondenseBenchPrograms checks structural invariants on the two
// extended-suite programs with the most interesting recursion shapes:
// self-loops must stay single components, and members of a
// multi-member component must reach each other.
func TestCondenseBenchPrograms(t *testing.T) {
	for _, name := range []string{"samsort", "tautology"} {
		prog, ok := bench.ExtendedByName(name)
		if !ok {
			t.Fatalf("%s not in extended suite", name)
		}
		tab, p := planOf(t, prog.Source)
		edges := p.StaticEdges()
		for i, scc := range p.SCCs {
			for _, j := range scc.Callees {
				if j >= i {
					t.Fatalf("%s: SCC %d callee %d not bottom-up", name, i, j)
				}
			}
			if len(scc.Members) > 1 {
				// Mutual recursion: each member calls into the component.
				for _, m := range scc.Members {
					callsIn := false
					for _, n := range scc.Members {
						if edges[[2]term.Functor{m, n}] {
							callsIn = true
						}
					}
					if !callsIn {
						t.Fatalf("%s: %s grouped into an SCC it never calls into",
							name, tab.FuncString(m))
					}
				}
			}
		}
	}
}

// TestEdgesMatchStaticCallEdges pins the plan's call graph to the
// engine's existing extractor on the whole benchmark suite.
func TestEdgesMatchStaticCallEdges(t *testing.T) {
	for _, prog := range bench.AllPrograms() {
		_, mod := mustCompile(t, prog.Source)
		p := NewPlan(mod, "ctx")
		if got, want := p.StaticEdges(), core.StaticCallEdges(mod); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plan edges disagree with core.StaticCallEdges", prog.Name)
		}
	}
}

// TestPlanDeterministic compiles every benchmark twice into fresh
// symbol tables and requires identical condensations and fingerprints —
// the property the content-addressed store depends on.
func TestPlanDeterministic(t *testing.T) {
	for _, prog := range bench.AllPrograms() {
		tab1, p1 := planOf(t, prog.Source)
		tab2, p2 := planOf(t, prog.Source)
		if got, want := sccNames(tab1, p1), sccNames(tab2, p2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: condensation not deterministic:\n%q\n%q", prog.Name, got, want)
		}
		for i := range p1.SCCs {
			if p1.Fingerprints[i] != p2.Fingerprints[i] {
				t.Fatalf("%s: SCC %d fingerprint differs across fresh compiles", prog.Name, i)
			}
			if len(p1.Fingerprints[i]) != 64 {
				t.Fatalf("%s: SCC %d fingerprint not sha256 hex: %q", prog.Name, i, p1.Fingerprints[i])
			}
		}
	}
}

// TestEveryPredicateAssigned: each defined predicate and each undefined
// callee maps to exactly one component that lists it as a member.
func TestEveryPredicateAssigned(t *testing.T) {
	for _, prog := range bench.AllPrograms() {
		tab, mod := mustCompile(t, prog.Source)
		p := NewPlan(mod, "ctx")
		for _, fn := range mod.Order {
			i, ok := p.PredSCC[fn]
			if !ok {
				t.Fatalf("%s: %s not assigned", prog.Name, tab.FuncString(fn))
			}
			found := false
			for _, m := range p.SCCs[i].Members {
				if m == fn {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: %s not a member of its own SCC", prog.Name, tab.FuncString(fn))
			}
		}
	}
}
