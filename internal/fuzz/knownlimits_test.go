package fuzz

import (
	"strings"
	"testing"

	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/term"
)

// confluenceRegressionSrc is the counterexample FuzzSoundnessSource
// discovered before the widening was restructured into an upper
// closure (a mutated qsort whose partition lost its body and whose
// first clause calls qsort on an unbound L1). Under the old domain the
// fixpoint reached depended on iteration order: whether a deep cons
// chain was widened to list(e) — silently admitting [] and changing
// base-clause reachability downstream — depended on the schedule's
// accumulated chain depth, so different schedules landed on different,
// individually sound, post-fixpoints (typically 3-6 byte-level
// divergences in 20 runs of a concurrent worklist). The uniform-list
// closure removed the nil injection, and this file pins the program as
// a byte-identity regression test.
const confluenceRegressionSrc = `qsort([X|L], R, R0) :- partition(L, X, b1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
qsort([], R, R).
partition([X|L], Y, L1, [X|L2]).
partition([], _G0, [], []).
`

const confluenceRegressionQuery = "qsort([3,1,2], R, [])"

// analyzeRegression runs one strategy on the pinned program and
// returns the marshaled table.
func analyzeRegression(t *testing.T, strat core.Strategy) string {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, confluenceRegressionSrc)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		t.Fatal(err)
	}
	goals, err := parser.ParseGoal(tab, confluenceRegressionQuery)
	if err != nil {
		t.Fatal(err)
	}
	goal := goals[0]
	fn, _ := term.Indicator(goal)
	shares := make(map[*term.VarRef]int)
	argAbs := make([]*domain.Term, len(goal.Args))
	for i, a := range goal.Args {
		argAbs[i] = domain.AbstractConcrete(tab, a, shares)
	}
	cp := domain.WidenPattern(tab, domain.NewPattern(fn, argAbs), 4)
	cfg := core.DefaultConfig()
	cfg.Strategy = strat
	res, err := core.NewWith(mod, cfg).Analyze(cp)
	if err != nil {
		t.Fatal(err)
	}
	return res.Marshal()
}

// TestConfluenceRegression: on the historical counterexample, every
// schedule must now reach the same fixpoint. The program runs under
// three schedules: the worklist's dependency-driven one and the naive
// passes, which must produce the byte-identical table, and the
// worklist over the clause-reversed program (CheckMetamorphic), whose
// discovery order differs and whose summary must not.
func TestConfluenceRegression(t *testing.T) {
	want := analyzeRegression(t, core.StrategyWorklist)
	if !strings.Contains(want, "qsort") {
		t.Fatal("marshal output missing the entry predicate")
	}
	if got := analyzeRegression(t, core.StrategyNaive); got != want {
		t.Fatalf("naive diverges from worklist:\nworklist:\n%s\nnaive:\n%s", want, got)
	}
	c := Case{Source: confluenceRegressionSrc, Queries: []string{confluenceRegressionQuery}}
	v, err := CheckMetamorphic(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("metamorphic violation on pinned program: %+v", v)
	}
	// The strict oracle must agree: full cross-strategy byte-identity
	// plus soundness of the shared result against concrete answers.
	opt := DefaultOptions()
	// The mutilated partition makes the concrete search explode; a few
	// thousand steps observe plenty of answers.
	opt.ConcreteSteps = 20_000
	opt.MaxSolutions = 4
	v, _, err = Check(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("strict oracle violation on pinned program: %+v", v)
	}
}

// TestWorklistSelfDeterminism pins the sequential engines' contract on
// the same program: repeated worklist (and naive) runs must be
// byte-identical run to run.
func TestWorklistSelfDeterminism(t *testing.T) {
	for _, strat := range []core.Strategy{core.StrategyWorklist, core.StrategyNaive} {
		var first string
		for i := 0; i < 10; i++ {
			m := analyzeRegression(t, strat)
			if i == 0 {
				first = m
			} else if m != first {
				t.Fatalf("strategy %v nondeterministic on run %d", strat, i)
			}
		}
	}
}
