package optimize

import (
	"context"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
)

// TestMeasuredStepSpeedups pins the optimizer's payoff deterministically:
// on the deriv benchmarks (variable-headed d/3 clauses the compiler
// cannot index, called with the first argument always bound) the gated
// pipeline must cut machine steps by more than 1.5x. Steps are
// schedule-invariant, so this asserts the acceptance criterion —
// runtime speedup on at least three benchmarks — without wall-clock
// noise.
func TestMeasuredStepSpeedups(t *testing.T) {
	want := map[string]float64{
		"log10":    1.5,
		"ops8":     1.5,
		"times10":  1.5,
		"divide10": 1.5,
	}
	found := 0
	for _, p := range bench.AllPrograms() {
		min, ok := want[p.Name]
		if !ok {
			continue
		}
		found++
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, p.Source)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.New(mod).AnalyzeAll()
		if err != nil {
			t.Fatal(err)
		}
		pl := Pipeline{Gate: &Gate{Goals: []string{"main"}}}
		opt, _, err := pl.Run(mod, res)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, baseSteps, err := Measure(context.Background(), mod, "main", 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, optSteps, err := Measure(context.Background(), opt, "main", 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		ratio := float64(baseSteps) / float64(optSteps)
		if ratio <= min {
			t.Errorf("%s: step ratio %.2f (baseline %d, optimized %d), want > %.1f",
				p.Name, ratio, baseSteps, optSteps, min)
		}
	}
	if found != len(want) {
		t.Fatalf("only %d of %d deriv benchmarks present in the suite", found, len(want))
	}
}
