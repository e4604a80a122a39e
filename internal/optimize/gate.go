package optimize

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"awam/internal/machine"
	"awam/internal/wam"
)

// Gate is the differential runtime check between pipeline passes, after
// Wuu-style translation validation: the same goals run on the optimized
// and the unoptimized machine and must produce the same answer sequence
// (bindings, in order, including the final failure or error). Goals that
// exhaust the step or solution budget on the baseline are inconclusive
// and skipped; a goal that completes on the baseline but diverges on the
// optimized module rejects the pass.
type Gate struct {
	// Goals are Prolog goal conjunctions, e.g. "main" or "app(X, Y, [1,2])".
	Goals []string
	// MaxSolutions bounds enumeration per goal; 0 means 64.
	MaxSolutions int
	// MaxSteps bounds each side's machine per goal; 0 means 20 million.
	MaxSteps int64
	// Ctx, when non-nil, stops every goal run once it is done, and the
	// pipeline with it.
	Ctx context.Context
}

const (
	defaultGateSolutions = 64
	defaultGateSteps     = 20_000_000
)

// goalRun is one goal's observable behavior on one module.
type goalRun struct {
	goal    string
	answers []string
	// status: "ok" (enumeration completed, possibly with zero answers),
	// "budget" (step or solution budget hit — inconclusive), or
	// "error: ..." (runtime error, part of observable behavior).
	status string
}

// run executes every gate goal against mod. The module is cloned per
// goal because compiling a query appends a fresh predicate to it.
func (g *Gate) run(mod *wam.Module) []goalRun {
	out := make([]goalRun, 0, len(g.Goals))
	for _, goal := range g.Goals {
		out = append(out, g.runGoal(mod, goal))
	}
	return out
}

func (g *Gate) runGoal(mod *wam.Module, goal string) goalRun {
	maxSol := g.MaxSolutions
	if maxSol == 0 {
		maxSol = defaultGateSolutions
	}
	maxSteps := g.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultGateSteps
	}
	r := goalRun{goal: goal, status: "ok"}
	m := machine.New(mod.Clone())
	m.MaxSteps = maxSteps
	m.Ctx = g.Ctx
	sol, err := m.Solve(goal)
	for n := 0; ; n++ {
		if err != nil {
			if errors.Is(err, machine.ErrStepLimit) {
				r.status = "budget"
			} else {
				r.status = "error: " + err.Error()
			}
			return r
		}
		if !sol.OK {
			return r
		}
		r.answers = append(r.answers, renderAnswer(mod, sol))
		if n+1 >= maxSol {
			r.status = "budget"
			return r
		}
		_, err = sol.Next()
	}
}

// renderAnswer canonicalizes one solution's bindings: variables sorted
// by name, values written with the module's symbol table.
func renderAnswer(mod *wam.Module, sol *machine.Solution) string {
	bind := sol.Bindings()
	names := make([]string, 0, len(bind))
	for name := range bind {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+" = "+mod.Tab.Write(bind[name]))
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, ", ")
}

// compare checks an optimized module's goal runs against the baseline's.
// It returns a *GateError (with Pass left empty — the pipeline fills it
// in) on the first divergence, nil if every goal agrees or is
// inconclusive on the baseline.
func (g *Gate) compare(base, opt []goalRun) *GateError {
	for i := range base {
		b, o := base[i], opt[i]
		if b.status == "budget" {
			// The baseline never finished: nothing to compare against.
			continue
		}
		if o.status == "budget" {
			// The baseline finished in budget but the optimized module
			// did not — the transformation made the program slower than
			// the whole budget or diverging; reject rather than guess.
			return &GateError{Goal: b.goal, Detail: "optimized run exceeded a budget the baseline met"}
		}
		if b.status != o.status {
			return &GateError{Goal: b.goal, Detail: fmt.Sprintf("completion changed: baseline %s, optimized %s", b.status, o.status)}
		}
		if len(b.answers) != len(o.answers) {
			return &GateError{Goal: b.goal, Detail: fmt.Sprintf("answer count changed: baseline %d, optimized %d", len(b.answers), len(o.answers))}
		}
		for j := range b.answers {
			if b.answers[j] != o.answers[j] {
				return &GateError{
					Goal:   b.goal,
					Detail: fmt.Sprintf("answer %d changed: baseline %q, optimized %q", j+1, b.answers[j], o.answers[j]),
				}
			}
		}
	}
	return nil
}

// canceled returns the error of the gate's context once it is done.
func (g *Gate) canceled() error {
	if g.Ctx == nil {
		return nil
	}
	return g.Ctx.Err()
}

// Check runs the gate goals on both modules and reports the first
// divergence (exported for tests and external validation harnesses).
func (g *Gate) Check(base, opt *wam.Module) error {
	if err := g.compare(g.run(base), g.run(opt)); err != nil {
		return err
	}
	return nil
}
