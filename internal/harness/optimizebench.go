package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/machine"
	"awam/internal/optimize"
	"awam/internal/wam"
)

// This file backs the benchtab `optimize` section: machine-runtime
// (not analysis-time) speedups from the gated optimizer pipeline, the
// paper's actual payoff. Each benchmark's main/0 runs on the
// unoptimized and the optimized machine, the two legs of one Sample.
// StepRatio is the deterministic abstract-machine step quotient
// (schedule-invariant, so reruns must reproduce it exactly), Speedup
// the wall-clock quotient.

// OptimizeEntry is one benchmark's optimizer measurement.
type OptimizeEntry struct {
	// Name is the benchmark (Table 1 suite and extensions).
	Name string `json:"name"`
	// Rewrites is the pipeline's total rewrite count; Rejected counts
	// passes the differential gate refused (0 on the committed suite —
	// enforced by TestGateOnBenchSuite).
	Rewrites int `json:"rewrites"`
	Rejected int `json:"rejected,omitempty"`
	// CodeBefore/CodeAfter are module sizes in instructions (the
	// pipeline appends dispatch blocks, so CodeAfter >= CodeBefore).
	CodeBefore int `json:"code_before"`
	CodeAfter  int `json:"code_after"`
	// Baseline and Optimized time main/0 on each machine;
	// BaselineSteps/OptimizedSteps are the machine steps of one run.
	Baseline       Stat  `json:"baseline"`
	Optimized      Stat  `json:"optimized"`
	BaselineSteps  int64 `json:"baseline_steps"`
	OptimizedSteps int64 `json:"optimized_steps"`
	// Speedup is Baseline over Optimized, sample by sample; StepRatio
	// the deterministic BaselineSteps/OptimizedSteps.
	Speedup   Dist    `json:"speedup"`
	StepRatio float64 `json:"step_ratio"`
}

// machineLeg runs goal on a fresh machine over a fresh copy of mod per
// run (query compilation appends to the module), recording the steps.
func machineLeg(name string, mod *wam.Module, goal string, steps *int64) Leg {
	var m *machine.Machine
	return Leg{
		Name:  name,
		Setup: func() error { m = machine.New(mod.Clone()); return nil },
		Run: func() error {
			// Goal failure is still a measurement; only machine errors abort.
			_, err := m.Solve(goal)
			*steps = m.Steps
			return err
		},
	}
}

// MeasureOptimize runs the gated default pipeline over the full
// benchmark suite and measures main/0 on both machines.
func MeasureOptimize(quick bool, progress io.Writer) ([]OptimizeEntry, error) {
	var out []OptimizeEntry
	for _, p := range bench.AllPrograms() {
		if progress != nil {
			fmt.Fprintf(progress, "  optimize %s...\n", p.Name)
		}
		mod, err := compileBench(p)
		if err != nil {
			return nil, err
		}
		res, err := core.New(mod).AnalyzeAll()
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", p.Name, err)
		}
		pl := optimize.Pipeline{Gate: &optimize.Gate{Goals: []string{"main"}}}
		opt, outcomes, err := pl.Run(mod, res)
		if err != nil {
			return nil, fmt.Errorf("%s: optimize: %w", p.Name, err)
		}
		e := OptimizeEntry{
			Name:       p.Name,
			CodeBefore: mod.Size(),
			CodeAfter:  opt.Size(),
		}
		for _, oc := range outcomes {
			if oc.Rejected {
				e.Rejected++
				continue
			}
			e.Rewrites += oc.Stats.Total
		}
		stats, err := Sample(quick,
			machineLeg("baseline", mod, "main", &e.BaselineSteps),
			machineLeg("optimized", opt, "main", &e.OptimizedSteps))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		e.Baseline, e.Optimized = stats[0], stats[1]
		e.Speedup = ratio(e.Baseline, e.Optimized)
		if e.OptimizedSteps > 0 {
			e.StepRatio = float64(e.BaselineSteps) / float64(e.OptimizedSteps)
		}
		out = append(out, e)
	}
	return out, nil
}

// WriteOptimizeTable renders the optimizer measurements as a text table
// (benchtab -table optimize).
func WriteOptimizeTable(w io.Writer, entries []OptimizeEntry) {
	fmt.Fprintln(w, "Optimizer: machine-runtime speedup of main/0 (gated pipeline)")
	fmt.Fprintln(w, "  "+hostLine())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\trewrites\tsteps before\tsteps after\tstep ratio\tus before\tus after\tspeedup")
	for _, e := range entries {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.2f\t%s\t%s\t%s\n",
			e.Name, e.Rewrites, e.BaselineSteps, e.OptimizedSteps, e.StepRatio,
			e.Baseline.NsPerOp.format(1e3, 1), e.Optimized.NsPerOp.format(1e3, 1), e.Speedup.format(1, 2))
	}
	tw.Flush()
}
