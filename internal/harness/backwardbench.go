package harness

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

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

// BackwardEntry is the backward-engine measurement for one workload.
type BackwardEntry struct {
	// Name is the workload, e.g. "wide_512"; Goal the demand entry.
	Name string `json:"name"`
	Goal string `json:"goal"`
	// VisitedSCCs/TotalSCCs is the demanded-cone criterion: a
	// single-family query must visit a tiny fraction of the program.
	VisitedSCCs int `json:"visited_sccs"`
	TotalSCCs   int `json:"total_sccs"`
	// Cold times a query against an empty store (ColdExecuted
	// components ran the gfp); Warm a repeat against the primed store
	// (WarmExecuted must be zero, WarmReused = ColdExecuted).
	Cold         Stat `json:"cold"`
	Warm         Stat `json:"warm"`
	ColdExecuted int  `json:"cold_executed"`
	WarmExecuted int  `json:"warm_executed"`
	WarmReused   int  `json:"warm_reused"`
	// Speedup is Cold over Warm, sample by sample.
	Speedup Dist `json:"speedup"`
	// Identical is the byte-level acceptance check: the cold and warm
	// results Marshal identically.
	Identical bool `json:"identical"`
	// Edit re-queries after a one-clause edit to the demanded family,
	// each run on an engine freshly primed with the unedited program;
	// EditExecuted components (the dirty cone) re-ran.
	Edit         Stat `json:"edit"`
	EditExecuted int  `json:"edit_executed"`
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
// predicate (p0_rev/2). Cold, warm and one-edit queries are the legs of
// one Sample.
func MeasureBackward(families int, quick bool, progress io.Writer) (*BackwardEntry, error) {
	base := bench.WideProgramSeeded(families, 0)
	if progress != nil {
		fmt.Fprintf(progress, "  %s/backward...\n", base.Name)
	}
	ctx := context.Background()

	tab, prog, mod, err := compileBackward(base)
	if err != nil {
		return nil, err
	}
	goal := tab.Func("p0_rev", 2)
	cfg := backward.Config{Goals: []term.Functor{goal}}
	e := &BackwardEntry{Name: base.Name, Goal: tab.FuncString(goal)}

	// One-edit re-query: append a clause to the demanded family's leaf
	// and ask again — only the dirty cone may re-execute.
	edited := base
	edited.Source += "\np0_rev(mutant_edit, mutant_edit).\n"
	_, eprog, emod, err := compileBackward(edited)
	if err != nil {
		return nil, err
	}
	ecfg := backward.Config{Goals: []term.Functor{emod.Tab.Func("p0_rev", 2)}}

	// Warm: one engine primed by its first query serves every repeat.
	warmEng := backward.NewEngine(nil)
	if _, err := warmEng.Analyze(ctx, inc.NewCondensation(mod), prog, cfg); err != nil {
		return nil, err
	}
	var cold, warm, edit *backward.Result
	var editEng *backward.Engine
	stats, err := Sample(quick,
		// Cold: a fresh engine (empty private store) per run.
		Leg{Name: "cold", Run: func() (err error) {
			cold, err = backward.NewEngine(nil).Analyze(ctx, inc.NewCondensation(mod), prog, cfg)
			return err
		}},
		Leg{Name: "warm", Run: func() (err error) {
			warm, err = warmEng.Analyze(ctx, inc.NewCondensation(mod), prog, cfg)
			return err
		}},
		// A re-query primes its engine's store with the edit, so every
		// run needs an engine freshly primed with the unedited program.
		Leg{Name: "edit",
			Setup: func() error {
				editEng = backward.NewEngine(nil)
				_, err := editEng.Analyze(ctx, inc.NewCondensation(mod), prog, cfg)
				return err
			},
			Run: func() (err error) {
				edit, err = editEng.Analyze(ctx, inc.NewCondensation(emod), eprog, ecfg)
				return err
			}},
	)
	if err != nil {
		return nil, fmt.Errorf("%s/backward: %w", base.Name, err)
	}
	e.Cold, e.Warm, e.Edit = stats[0], stats[1], stats[2]
	e.Speedup = ratio(e.Cold, e.Warm)
	e.VisitedSCCs = cold.VisitedSCCs
	e.TotalSCCs = cold.TotalSCCs
	e.ColdExecuted = cold.ExecutedSCCs
	e.WarmExecuted = warm.ExecutedSCCs
	e.WarmReused = warm.ReusedSCCs
	e.Identical = cold.Marshal() == warm.Marshal()
	e.EditExecuted = edit.ExecutedSCCs
	return e, nil
}

// WriteBackwardTable renders the backward measurements as text.
func WriteBackwardTable(w io.Writer, entries []BackwardEntry) {
	fmt.Fprintln(w, "Backward demand queries (cold store vs primed store vs one-edit re-query)")
	fmt.Fprintln(w, "  "+hostLine())
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "program\tgoal\tcone\tcold ms\twarm ms\tspeedup\tedit ms\tre-exec\tidentical")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%s\t%s\t%sx\t%s\t%d\t%t\n",
			e.Name, e.Goal, e.VisitedSCCs, e.TotalSCCs,
			e.Cold.NsPerOp.format(1e6, 2), e.Warm.NsPerOp.format(1e6, 2), e.Speedup.format(1, 1),
			e.Edit.NsPerOp.format(1e6, 2), e.EditExecuted, e.Identical)
	}
	tw.Flush()
}
