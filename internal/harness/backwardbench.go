package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"awam/internal/backward"
	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file measures the demand-driven backward engine on the wide
// scaling workload: a single-family demand query against a program of
// hundreds of independent families. Three regimes matter — a cold query
// (empty store) pays for exactly the demanded cone, a repeat query
// against a primed store re-executes nothing, and a one-edit re-query
// pays only for the edited family's dirty records.

// BackwardEntry is the backward-engine measurement for one workload,
// recorded in the JSON benchmark report.
type BackwardEntry struct {
	// Name is the workload, e.g. "wide_512"; Goal the demand entry.
	Name string `json:"name"`
	Goal string `json:"goal"`
	// VisitedSCCs/TotalSCCs is the demanded-cone criterion: a
	// single-family query must visit a tiny fraction of the program.
	VisitedSCCs int `json:"visited_sccs"`
	TotalSCCs   int `json:"total_sccs"`
	// ColdNsPerOp times a query against an empty store (ColdExecuted
	// components ran the gfp); WarmNsPerOp a repeat against the primed
	// store (WarmExecuted must be zero, WarmReused = ColdExecuted).
	ColdNsPerOp  int64 `json:"cold_ns_per_op"`
	WarmNsPerOp  int64 `json:"warm_ns_per_op"`
	ColdExecuted int   `json:"cold_executed"`
	WarmExecuted int   `json:"warm_executed"`
	WarmReused   int   `json:"warm_reused"`
	// Speedup is ColdNsPerOp / WarmNsPerOp.
	Speedup float64 `json:"speedup"`
	// Identical is the byte-level acceptance check: the cold and warm
	// results Marshal identically.
	Identical bool `json:"identical"`
	// EditNsPerOp re-queries after a one-clause edit to the demanded
	// family; EditExecuted components (the dirty cone) re-ran.
	EditNsPerOp  int64 `json:"edit_ns_per_op"`
	EditExecuted int   `json:"edit_executed"`
	// ColdIters and WarmIters are the run counts behind the averages.
	ColdIters int `json:"cold_iters"`
	WarmIters int `json:"warm_iters"`
}

// compileBackward parses and compiles p, keeping the source program —
// the backward engine computes demands over the expanded clauses.
func compileBackward(p bench.Program) (*term.Tab, *term.Program, *wam.Module, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, p.Source)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: parse: %w", p.Name, err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: compile: %w", p.Name, err)
	}
	return tab, prog, mod, nil
}

// MeasureBackward produces the backward-engine entry for the wide
// program with the given family count, demanding one family's reverse
// predicate (p0_rev/2).
func MeasureBackward(families int, quick bool, progress io.Writer) (*BackwardEntry, error) {
	base := bench.WideProgramSeeded(families, 0)
	say := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	ctx := context.Background()

	tab, prog, mod, err := compileBackward(base)
	if err != nil {
		return nil, err
	}
	goal := tab.Func("p0_rev", 2)
	cfg := backward.Config{Goals: []term.Functor{goal}}
	e := &BackwardEntry{Name: base.Name, Goal: tab.FuncString(goal)}

	coldIters, warmIters := 5, 20
	if quick {
		coldIters, warmIters = 1, 2
	}
	e.ColdIters, e.WarmIters = coldIters, warmIters

	// Cold: a fresh engine (empty private store) per run.
	say("  %s/backward: %d cold runs...\n", base.Name, coldIters)
	runtime.GC()
	var cold *backward.Result
	start := time.Now()
	for i := 0; i < coldIters; i++ {
		cold, err = backward.NewEngine(nil).Analyze(ctx, inc.NewCondensation(mod), prog, cfg)
		if err != nil {
			return nil, err
		}
	}
	e.ColdNsPerOp = time.Since(start).Nanoseconds() / int64(coldIters)
	e.VisitedSCCs = cold.VisitedSCCs
	e.TotalSCCs = cold.TotalSCCs
	e.ColdExecuted = cold.ExecutedSCCs

	// Warm: one engine primed by its first query, then repeat queries.
	eng := backward.NewEngine(nil)
	if _, err := eng.Analyze(ctx, inc.NewCondensation(mod), prog, cfg); err != nil {
		return nil, err
	}
	say("  %s/backward: %d warm runs...\n", base.Name, warmIters)
	runtime.GC()
	var warm *backward.Result
	start = time.Now()
	for i := 0; i < warmIters; i++ {
		warm, err = eng.Analyze(ctx, inc.NewCondensation(mod), prog, cfg)
		if err != nil {
			return nil, err
		}
	}
	e.WarmNsPerOp = time.Since(start).Nanoseconds() / int64(warmIters)
	e.WarmExecuted = warm.ExecutedSCCs
	e.WarmReused = warm.ReusedSCCs
	e.Identical = cold.Marshal() == warm.Marshal()
	if e.WarmNsPerOp > 0 {
		e.Speedup = float64(e.ColdNsPerOp) / float64(e.WarmNsPerOp)
	}

	// One-edit re-query: append a clause to the demanded family's leaf
	// and ask again — only the dirty cone may re-execute.
	edited := base
	edited.Source += "\np0_rev(mutant_edit, mutant_edit).\n"
	_, eprog, emod, err := compileBackward(edited)
	if err != nil {
		return nil, err
	}
	egoal := emod.Tab.Func("p0_rev", 2)
	say("  %s/backward: one-edit re-query...\n", base.Name)
	start = time.Now()
	eres, err := eng.Analyze(ctx, inc.NewCondensation(emod), eprog, backward.Config{Goals: []term.Functor{egoal}})
	if err != nil {
		return nil, err
	}
	e.EditNsPerOp = time.Since(start).Nanoseconds()
	e.EditExecuted = eres.ExecutedSCCs
	return e, nil
}

// WriteBackwardTable renders the backward measurements as text.
func WriteBackwardTable(w io.Writer, entries []BackwardEntry) {
	fmt.Fprintln(w, "Backward demand queries (cold store vs primed store vs one-edit re-query)")
	fmt.Fprintf(w, "%-10s %-10s %10s %12s %12s %8s %12s %10s %s\n",
		"program", "goal", "cone", "cold ns/op", "warm ns/op", "speedup", "edit ns/op", "re-exec", "identical")
	for _, e := range entries {
		fmt.Fprintf(w, "%-10s %-10s %6d/%-5d %12d %12d %7.1fx %12d %10d %t\n",
			e.Name, e.Goal, e.VisitedSCCs, e.TotalSCCs,
			e.ColdNsPerOp, e.WarmNsPerOp, e.Speedup,
			e.EditNsPerOp, e.EditExecuted, e.Identical)
	}
}
