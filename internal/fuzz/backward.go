package fuzz

import (
	"context"
	"errors"
	"fmt"

	"awam/internal/backward"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/term"
)

// CheckBackward runs the forward/backward consistency oracle on one
// case: infer the weakest demands for the program's default goal set
// (main/0 when defined, else every source predicate), then re-analyze
// forward from each non-bottom demand and require a non-bottom success
// pattern. The backward gfp promises exactly that its answer cannot be
// refuted by the forward semantics, so a refutation is a real defect in
// one of the two transfer functions — reported as a
// "backward-consistency" violation. Bottom demands are vacuous (the
// engine already concluded no call is safe) and undefined
// pseudo-components have no forward summary to consult; both are
// skipped. Step-budget exhaustion on either direction skips the case
// rather than failing it, as in Check.
func CheckBackward(c Case, opt Options) (*Violation, Stats, error) {
	var st Stats
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, c.Source)
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: parse: %w", err)
	}
	mod, exp, err := compiler.CompileExpanded(tab, prog, compiler.DefaultOptions())
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: compile: %w", err)
	}
	bres, err := backward.NewEngine(nil).Analyze(context.Background(), inc.NewCondensation(mod), exp,
		backward.Config{Depth: opt.Depth, MaxSteps: opt.AbstractSteps})
	if errors.Is(err, core.ErrStepLimit) {
		st.Skipped++
		return nil, st, nil
	}
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: backward: %w", err)
	}

	cfg := core.DefaultConfig()
	cfg.Depth = opt.Depth
	cfg.MaxSteps = opt.AbstractSteps
	cfg.Strategy = core.StrategyWorklist
	for _, fn := range bres.Predicates() {
		d, _ := bres.DemandFor(fn)
		if d == nil || len(prog.Preds[fn]) == 0 {
			st.Skipped++
			continue
		}
		res, err := core.NewWith(mod, cfg).Analyze(d)
		if errors.Is(err, core.ErrStepLimit) {
			st.Skipped++
			continue
		}
		if err != nil {
			return nil, st, fmt.Errorf("fuzz: forward from demand %s: %w", d.String(tab), err)
		}
		st.Queries++
		if res.SuccessFor(fn) == nil {
			return &Violation{
				Kind:   "backward-consistency",
				Seed:   c.Seed,
				Source: c.Source,
				Query:  tab.FuncString(fn),
				Detail: fmt.Sprintf(
					"backward analysis claims %s is the weakest safe demand but the forward analysis refutes success from it",
					d.String(tab)),
				Clauses: len(prog.Clauses),
			}, st, nil
		}
	}
	return nil, st, nil
}
