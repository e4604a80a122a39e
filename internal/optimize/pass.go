package optimize

import (
	"errors"
	"fmt"
	"sort"

	"awam/internal/core"
	"awam/internal/term"
	"awam/internal/wam"
)

// Typed errors. Pipeline failures wrap ErrOptimize (and the failing
// pass's name, via PassError / GateError), so callers can branch with
// errors.Is without string matching.
var (
	// ErrOptimize is the sentinel for any optimizer failure.
	ErrOptimize = errors.New("optimize: pass failed")
	// ErrUnknownPass reports a pass name not in the registry.
	ErrUnknownPass = errors.New("optimize: unknown pass")
)

// PassError wraps a pass that failed to apply.
type PassError struct {
	Pass string
	Err  error
}

func (e *PassError) Error() string {
	return fmt.Sprintf("optimize: pass %s: %v", e.Pass, e.Err)
}

func (e *PassError) Unwrap() error { return ErrOptimize }

// GateError reports a pass whose output changed observable answers: the
// differential gate ran the entry goals on the optimized and unoptimized
// machine and the answer sets differ. The pass's output is discarded —
// an answer-changing transformation is never shipped — and the failure
// is surfaced so it cannot pass silently either.
type GateError struct {
	Pass   string
	Goal   string
	Detail string
}

func (e *GateError) Error() string {
	return fmt.Sprintf("optimize: gate rejected pass %s on goal %q: %s", e.Pass, e.Goal, e.Detail)
}

func (e *GateError) Unwrap() error { return ErrOptimize }

// PassStats reports what one pass changed.
type PassStats struct {
	// Rewrites counts changes by kind (instruction mnemonic, "stripped",
	// "dead clause", "indexed", ...).
	Rewrites map[string]int `json:"rewrites,omitempty"`
	// Total is the overall number of rewrites.
	Total int `json:"total"`
	// PredsTouched counts predicates with at least one change.
	PredsTouched int `json:"preds_touched"`
	// InstrDelta is the code-size change in instructions (positive for
	// passes that append dispatch blocks, zero for in-place rewrites).
	InstrDelta int `json:"instr_delta"`
	// ClauseDelta is the change in dispatched clauses (negative when
	// dead clauses or unreachable predicates are dropped).
	ClauseDelta int `json:"clause_delta"`
}

func (s *PassStats) note(kind string, n int) {
	if n == 0 {
		return
	}
	if s.Rewrites == nil {
		s.Rewrites = make(map[string]int)
	}
	s.Rewrites[kind] += n
	s.Total += n
}

// Pass is one analysis-driven code transformation. Apply must not
// modify the input module; it returns a new module (sharing unchanged
// structure is fine) together with what it changed.
type Pass interface {
	Name() string
	Apply(mod *wam.Module, res *core.Result) (*wam.Module, PassStats, error)
}

// Passes returns the default pipeline in its canonical order:
// unreachable predicates first (less work for the rest), then dead
// clauses, then analysis-directed indexing over the surviving dispatch,
// then unification specialization inside the surviving clauses.
func Passes() []Pass {
	return []Pass{
		stripPass{},
		deadClausePass{},
		indexPass{},
		specializePass{},
	}
}

// PassNames lists the registered pass names in canonical order.
func PassNames() []string {
	ps := Passes()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

// PassByName resolves a registered pass. Unknown names fail with an
// error wrapping ErrUnknownPass (and ErrOptimize).
func PassByName(name string) (Pass, error) {
	for _, p := range Passes() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownPass, name, PassNames())
}

// PassOutcome is one pipeline step's result.
type PassOutcome struct {
	// Name is the pass.
	Name string `json:"name"`
	// Stats is what the pass changed (also filled for rejected passes:
	// the stats of the discarded attempt).
	Stats PassStats `json:"stats"`
	// Rejected marks a pass whose output the differential gate refused;
	// RejectReason says why. A rejected pass's output is not shipped.
	Rejected     bool   `json:"rejected,omitempty"`
	RejectReason string `json:"reject_reason,omitempty"`
}

// Pipeline composes passes with a differential runtime gate between
// them. After every pass the gate runs the entry goals on the pass's
// output and compares the answer sets against the unoptimized module's;
// a pass that changes any answer is rejected (its output discarded) and
// the pipeline continues from the last accepted module.
type Pipeline struct {
	// Passes run in order; nil selects Passes().
	Passes []Pass
	// Gate verifies each pass's output; nil disables gating (unit tests
	// and benchmarks only — the facade always gates).
	Gate *Gate
}

// Run applies the pipeline to mod. It returns the optimized module, the
// per-pass outcomes, and an error: a *PassError when a pass fails to
// apply, or the first *GateError when any pass was rejected. Even with
// a GateError the returned module is valid — it contains every accepted
// pass — so callers can choose between failing hard and shipping the
// surviving pipeline; both wrap ErrOptimize. Once the gate's Ctx is
// done, Run stops with its error.
func (pl *Pipeline) Run(mod *wam.Module, res *core.Result) (*wam.Module, []PassOutcome, error) {
	passes := pl.Passes
	if passes == nil {
		passes = Passes()
	}
	var base []goalRun
	if pl.Gate != nil {
		base = pl.Gate.run(mod)
		if err := pl.Gate.canceled(); err != nil {
			return mod, nil, err
		}
	}
	cur := mod
	var outcomes []PassOutcome
	var firstGateErr error
	for _, p := range passes {
		next, stats, err := p.Apply(cur, res)
		if err != nil {
			return cur, outcomes, &PassError{Pass: p.Name(), Err: err}
		}
		oc := PassOutcome{Name: p.Name(), Stats: stats}
		if pl.Gate != nil {
			runs := pl.Gate.run(next)
			if err := pl.Gate.canceled(); err != nil {
				return cur, outcomes, err
			}
			if gerr := pl.Gate.compare(base, runs); gerr != nil {
				gerr.Pass = p.Name()
				oc.Rejected = true
				oc.RejectReason = gerr.Error()
				if firstGateErr == nil {
					firstGateErr = gerr
				}
				outcomes = append(outcomes, oc)
				continue // keep cur: the rejected output is never shipped
			}
		}
		cur = next
		outcomes = append(outcomes, oc)
	}
	return cur, outcomes, firstGateErr
}

// retargetCalls rewrites every linked call/execute of fn to a new entry
// address. Unlinked calls (FailAddr: the dynamic-predicate path) are
// left alone.
func retargetCalls(mod *wam.Module, fn term.Functor, entry int) {
	for i := range mod.Code {
		ins := &mod.Code[i]
		if (ins.Op == wam.OpCall || ins.Op == wam.OpExecute) && ins.Fn == fn && ins.L != wam.FailAddr {
			ins.L = entry
		}
	}
}

// emitBlock appends a try/retry/trust block dispatching to addrs in
// order and returns its address; a single address is returned directly
// and an empty list fails.
func emitBlock(mod *wam.Module, addrs []int) int {
	switch len(addrs) {
	case 0:
		return wam.FailAddr
	case 1:
		return addrs[0]
	}
	blk := len(mod.Code)
	for i, a := range addrs {
		switch {
		case i == 0:
			mod.Code = append(mod.Code, wam.Instr{Op: wam.OpTry, L: a})
		case i == len(addrs)-1:
			mod.Code = append(mod.Code, wam.Instr{Op: wam.OpTrust, L: a})
		default:
			mod.Code = append(mod.Code, wam.Instr{Op: wam.OpRetry, L: a})
		}
	}
	return blk
}

// sortedKinds renders a Rewrites map deterministically (reports, logs).
func sortedKinds(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
