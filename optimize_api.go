package awam

import (
	"context"
	"errors"
	"fmt"

	"awam/internal/optimize"
)

// ErrOptimize reports an optimization failure: a pass that failed to
// apply or — more importantly — a pass whose output the differential
// runtime gate rejected because it changed observable answers. The
// error chain includes the failing pass's name (via the wrapped
// *optimize.PassError or *optimize.GateError).
var ErrOptimize = errors.New("awam: optimization failed")

// OptimizeOption configures System.Optimize.
type OptimizeOption func(*optimizeCfg)

type optimizeCfg struct {
	passes      []string
	gateGoals   []string
	measureRuns int
	err         error
}

func (c *optimizeCfg) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithPasses selects which optimizer passes run, in the given order
// (default: every registered pass in canonical order; see PassNames).
// Unknown names are rejected by Optimize with ErrBadOption.
func WithPasses(names ...string) OptimizeOption {
	return func(c *optimizeCfg) {
		for _, n := range names {
			if _, err := optimize.PassByName(n); err != nil {
				c.fail(fmt.Errorf("%w: %w", ErrBadOption, err))
				return
			}
		}
		c.passes = names
	}
}

// WithGateGoals adds goals to the differential gate (and to the runtime
// measurement when main/0 is absent). The goals run on the optimized
// and the unoptimized machine after every pass; any answer difference
// rejects the pass. By default the gate runs main when the program
// defines main/0.
//
// The gate goals should exercise the program the way the analysis entry
// does: a transformation like dead-clause elimination is justified only
// for the call classes the analysis recorded, and a goal outside them
// may (correctly) be rejected by the gate.
func WithGateGoals(goals ...string) OptimizeOption {
	return func(c *optimizeCfg) { c.gateGoals = append(c.gateGoals, goals...) }
}

// WithMeasureRuns sets how many timed runs the speedup measurement
// performs per module (fastest run wins); 0 disables measurement and
// negative values are rejected by Optimize with ErrBadOption. The
// default is 3.
func WithMeasureRuns(n int) OptimizeOption {
	return func(c *optimizeCfg) {
		if n < 0 {
			c.fail(fmt.Errorf("%w: negative measure runs %d", ErrBadOption, n))
			return
		}
		c.measureRuns = n
	}
}

// PassNames lists the registered optimizer passes in canonical order.
func PassNames() []string { return optimize.PassNames() }

// PassReport is one pipeline step of an OptimizeReport.
type PassReport struct {
	// Name is the pass.
	Name string `json:"name"`
	// Rewrites counts changes by kind; Total sums them.
	Rewrites map[string]int `json:"rewrites,omitempty"`
	Total    int            `json:"total"`
	// PredsTouched counts predicates with at least one change.
	PredsTouched int `json:"preds_touched"`
	// InstrDelta is the code-size change in instructions; ClauseDelta
	// the change in dispatched clauses.
	InstrDelta  int `json:"instr_delta"`
	ClauseDelta int `json:"clause_delta"`
	// Rejected marks a pass the differential gate refused; its output
	// was discarded and RejectReason says why.
	Rejected     bool   `json:"rejected,omitempty"`
	RejectReason string `json:"reject_reason,omitempty"`
}

// OptimizeReport describes what an Optimize call did: the per-pass
// deltas, the gate configuration, and — when measurement ran — the
// machine-runtime speedup of the optimized module.
type OptimizeReport struct {
	// Passes are the pipeline steps in execution order.
	Passes []PassReport `json:"passes"`
	// CodeBefore/CodeAfter are module instruction counts.
	CodeBefore int `json:"code_before"`
	CodeAfter  int `json:"code_after"`
	// GateGoals are the goals the differential gate verified.
	GateGoals []string `json:"gate_goals,omitempty"`
	// Measured reports whether the runtime measurement ran (it needs a
	// runnable goal: main/0 or a gate goal).
	Measured bool `json:"measured"`
	// MeasureGoal/MeasureRuns describe the measurement; BaselineNS and
	// OptimizedNS are the fastest wall times, BaselineSteps and
	// OptimizedSteps the executed-instruction counts of those runs.
	MeasureGoal    string `json:"measure_goal,omitempty"`
	MeasureRuns    int    `json:"measure_runs,omitempty"`
	BaselineNS     int64  `json:"baseline_ns,omitempty"`
	OptimizedNS    int64  `json:"optimized_ns,omitempty"`
	BaselineSteps  int64  `json:"baseline_steps,omitempty"`
	OptimizedSteps int64  `json:"optimized_steps,omitempty"`
	// Speedup is BaselineNS/OptimizedNS; StepRatio is
	// BaselineSteps/OptimizedSteps. Zero when not measured.
	Speedup   float64 `json:"speedup,omitempty"`
	StepRatio float64 `json:"step_ratio,omitempty"`
}

// Optimize runs the analysis-driven optimizer pipeline over the system:
// unreachable-predicate stripping, dead-clause elimination with
// choice-point removal for determinate predicates, analysis-directed
// first-argument indexing, and unification specialization (WithPasses
// selects a subset). Every pass is differentially gated: the gate goals
// (main/0 by default, WithGateGoals adds more) run on the optimized and
// the unoptimized machine and must produce identical answer sequences;
// a pass that changes any answer makes Optimize fail with an error
// wrapping ErrOptimize naming the pass — its output is never shipped.
//
// On success the report carries per-pass instruction and clause deltas
// and, unless WithMeasureRuns(0) disabled it, the measured machine
// runtime speedup. On gate rejection the report is still returned
// alongside the error so callers can see which pass failed and why.
func (s *System) Optimize(a *Analysis, opts ...OptimizeOption) (*System, *OptimizeReport, error) {
	return s.OptimizeContext(context.Background(), a, opts...)
}

// OptimizeContext is Optimize honoring ctx: the gate's and the
// measurement's concrete runs stop once ctx is done, and the error
// wraps ErrCanceled.
func (s *System) OptimizeContext(ctx context.Context, a *Analysis, opts ...OptimizeOption) (*System, *OptimizeReport, error) {
	// The analysis must come from this system or one derived from it
	// (Specialize/StripUnreachable chains share the symbol table).
	if a == nil || a.sys == nil || a.sys.tab != s.tab {
		return nil, nil, fmt.Errorf("%w: analysis does not belong to this system", ErrOptimize)
	}
	cfg := optimizeCfg{measureRuns: 3}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, nil, cfg.err
	}
	var passes []optimize.Pass
	if cfg.passes != nil {
		for _, n := range cfg.passes {
			p, err := optimize.PassByName(n)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %w", ErrBadOption, err)
			}
			passes = append(passes, p)
		}
	}
	goals := cfg.gateGoals
	if s.mod.Proc(s.tab.Func("main", 0)) != nil {
		goals = append([]string{"main"}, goals...)
	}
	pl := optimize.Pipeline{Passes: passes, Gate: &optimize.Gate{Goals: goals, Ctx: ctx}}
	mod, outcomes, err := pl.Run(s.mod, a.res)
	report := &OptimizeReport{
		CodeBefore: s.mod.Size(),
		CodeAfter:  mod.Size(),
		GateGoals:  goals,
	}
	for _, oc := range outcomes {
		report.Passes = append(report.Passes, PassReport{
			Name:         oc.Name,
			Rewrites:     oc.Stats.Rewrites,
			Total:        oc.Stats.Total,
			PredsTouched: oc.Stats.PredsTouched,
			InstrDelta:   oc.Stats.InstrDelta,
			ClauseDelta:  oc.Stats.ClauseDelta,
			Rejected:     oc.Rejected,
			RejectReason: oc.RejectReason,
		})
	}
	if ctx.Err() != nil {
		return nil, report, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
	}
	if err != nil {
		return nil, report, fmt.Errorf("%w: %w", ErrOptimize, err)
	}
	if cfg.measureRuns > 0 && len(goals) > 0 {
		report.MeasureGoal = goals[0]
		report.MeasureRuns = cfg.measureRuns
		baseNS, baseSteps, berr := optimize.Measure(ctx, s.mod, goals[0], cfg.measureRuns)
		optNS, optSteps, oerr := optimize.Measure(ctx, mod, goals[0], cfg.measureRuns)
		if ctx.Err() != nil {
			return nil, report, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
		}
		if berr == nil && oerr == nil {
			report.Measured = true
			report.BaselineNS = baseNS.Nanoseconds()
			report.OptimizedNS = optNS.Nanoseconds()
			report.BaselineSteps = baseSteps
			report.OptimizedSteps = optSteps
			if report.OptimizedNS > 0 {
				report.Speedup = float64(report.BaselineNS) / float64(report.OptimizedNS)
			}
			if optSteps > 0 {
				report.StepRatio = float64(baseSteps) / float64(optSteps)
			}
		}
	}
	return &System{tab: s.tab, prog: s.prog, mod: mod}, report, nil
}
