package awam

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"awam/internal/backward"
	"awam/internal/term"
)

// BackwardOption configures AnalyzeBackward. Like AnalyzeOption, every
// option carries its value — there are no boolean-flag options — and
// invalid values surface as ErrBadOption from AnalyzeBackward, never as
// a silently clamped configuration.
type BackwardOption func(*backwardCfg)

type backwardCfg struct {
	goals    []string
	depth    int
	maxSteps int64
	store    Store
	err      error
}

func (c *backwardCfg) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithGoal adds a demand entry point, a predicate indicator like
// "qsort/3". The option is repeatable; with no WithGoal the query is
// rooted at main/0 when the program defines it, else at every source
// predicate. A goal the program neither defines nor calls is rejected
// with ErrBadOption.
func WithGoal(pred string) BackwardOption {
	return func(c *backwardCfg) { c.goals = append(c.goals, pred) }
}

// WithBackwardDepth sets the widening depth bound demands are closed
// under (default 4, the forward default). Negative depths are rejected
// with ErrBadOption.
func WithBackwardDepth(k int) BackwardOption {
	return func(c *backwardCfg) {
		if k < 0 {
			c.fail(fmt.Errorf("%w: negative depth %d", ErrBadOption, k))
			return
		}
		c.depth = k
	}
}

// WithBackwardMaxSteps bounds the backward transfer steps; exceeding it
// fails with ErrAnalysisBudget. Nonpositive budgets are rejected with
// ErrBadOption.
func WithBackwardMaxSteps(n int64) BackwardOption {
	return func(c *backwardCfg) {
		if n <= 0 {
			c.fail(fmt.Errorf("%w: nonpositive step budget %d", ErrBadOption, n))
			return
		}
		c.maxSteps = n
	}
}

// WithBackwardStore runs the query against s, the same tiered summary
// fabric forward analyses use with WithSummaryCache: converged
// component demands are stored content-addressed (under a distinct
// format salt, so the two record universes never collide), and a repeat
// query over clean components re-executes nothing — including across
// processes when the store has a disk or remote tier. A nil s is a
// no-op (the System's private store serves repeat queries in-process).
func WithBackwardStore(s Store) BackwardOption {
	return func(c *backwardCfg) { c.store = s }
}

// DemandArg is one argument position of a Demand.
type DemandArg struct {
	// Type is the weakest abstract type demanded at this position — the
	// root of the demanded depth-k term. TypeAny means the position is
	// unconstrained (an output, or simply never examined).
	Type Type
}

// Demand is the backward analysis result for one predicate: the weakest
// call pattern under which the forward abstract semantics cannot refute
// success, with every builtin used error-free. It mirrors Summary on
// the forward side.
type Demand struct {
	// Pred is the predicate as "name/arity".
	Pred string
	// Args holds one entry per argument (empty for arity 0, and when no
	// safe call exists).
	Args []DemandArg
	// Call is the demand written as an abstract pattern, e.g.
	// "qsort(nv, any, any)"; "" when Callable is false.
	Call string
	// Callable reports whether any safe call pattern exists at all.
	// False is the demand bottom: the predicate is undefined, can never
	// succeed, or needs something the domain cannot express.
	Callable bool
}

// BackwardStats are the run statistics of one backward analysis.
type BackwardStats struct {
	// Steps counts abstract transfer steps (one per body goal walked);
	// Iterations counts fixpoint sweeps over component members.
	Steps      int64
	Iterations int
	// VisitedSCCs is the demanded cone, out of TotalSCCs call-graph
	// components; the gap is the work demand-driving saved. ReusedSCCs
	// were served from the summary store, ExecutedSCCs ran the fixpoint
	// (undefined pseudo-components count in neither).
	VisitedSCCs, TotalSCCs   int
	ReusedSCCs, ExecutedSCCs int
	// CondenseMS, ForwardMS and SolveMS split the wall time: call-graph
	// condensation (paid by the first query of a System, whose analyses
	// share one) plus cone discovery and hashing, the lazy forward success
	// pre-pass (zero when every component was served from the store),
	// and the backward fixpoint itself.
	CondenseMS, ForwardMS, SolveMS int64
}

// BackwardAnalysis holds a finished demand analysis.
type BackwardAnalysis struct {
	sys *System
	res *backward.Result
}

// AnalyzeBackward runs the demand-driven backward analysis: for each
// goal predicate and everything it transitively demands, infer the
// weakest call pattern under which success cannot be refuted and every
// builtin is error-free. It is AnalyzeBackwardContext with a background
// context.
func (s *System) AnalyzeBackward(opts ...BackwardOption) (*BackwardAnalysis, error) {
	return s.AnalyzeBackwardContext(context.Background(), opts...)
}

// AnalyzeBackwardContext runs the backward analysis under a context.
// Cancellation fails with an error wrapping ErrCanceled; an exhausted
// WithBackwardMaxSteps budget with ErrAnalysisBudget; invalid option
// values — including goals the program does not mention — with
// ErrBadOption.
func (s *System) AnalyzeBackwardContext(ctx context.Context, opts ...BackwardOption) (*BackwardAnalysis, error) {
	var c backwardCfg
	for _, o := range opts {
		o(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	cfg := backward.Config{Depth: c.depth, MaxSteps: c.maxSteps}
	for _, g := range c.goals {
		fn, err := parseIndicator(s.tab, g)
		if err != nil {
			return nil, err
		}
		cfg.Goals = append(cfg.Goals, fn)
	}
	t0 := time.Now()
	cond := s.condensation()
	condDur := time.Since(t0)
	res, err := s.backwardEngine(c.store).Analyze(ctx, cond, s.exp, cfg)
	if err != nil {
		if errors.Is(err, backward.ErrUnknownGoal) {
			return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		return nil, wrapAnalysisErr(err)
	}
	res.CondenseDur += condDur
	return &BackwardAnalysis{sys: s, res: res}, nil
}

// backwardEngine picks the engine for one query: over the caller's
// store when one was given, else the System's lazily-built private
// engine, whose in-memory store makes repeat queries on this System
// warm by default.
func (s *System) backwardEngine(st Store) *backward.Engine {
	if sc, ok := st.(*SummaryCache); ok && sc != nil {
		return backward.NewEngine(sc.store)
	}
	s.bwdOnce.Do(func() { s.bwdEng = backward.NewEngine(nil) })
	return s.bwdEng
}

// parseIndicator reads a "name/arity" predicate indicator.
func parseIndicator(tab *term.Tab, s string) (term.Functor, error) {
	i := strings.LastIndex(s, "/")
	if i <= 0 || i == len(s)-1 {
		return term.Functor{}, fmt.Errorf("%w: goal %q is not a name/arity indicator", ErrBadOption, s)
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 0 {
		return term.Functor{}, fmt.Errorf("%w: goal %q has a bad arity", ErrBadOption, s)
	}
	return tab.Func(s[:i], n), nil
}

// System returns the system the demands were computed for.
func (b *BackwardAnalysis) System() *System { return b.sys }

// Marshal serializes the demand set as text, one sorted line per
// visited predicate. Byte-identical results marshal byte-identically,
// whichever store tier served them.
func (b *BackwardAnalysis) Marshal() string { return b.res.Marshal() }

// Predicates lists the visited predicates — the demanded cone — as
// "name/arity" strings, sorted.
func (b *BackwardAnalysis) Predicates() []string {
	fns := b.res.Predicates()
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = b.sys.tab.FuncString(fn)
	}
	return out
}

// Demand returns the typed demand of a predicate given as "name/arity",
// and whether the predicate was in the demanded cone.
func (b *BackwardAnalysis) Demand(pred string) (Demand, bool) {
	for _, fn := range b.res.Predicates() {
		if b.sys.tab.FuncString(fn) == pred {
			return b.demandOf(fn), true
		}
	}
	return Demand{}, false
}

// Demands returns every visited predicate's demand, sorted by
// "name/arity".
func (b *BackwardAnalysis) Demands() []Demand {
	fns := b.res.Predicates()
	out := make([]Demand, len(fns))
	for i, fn := range fns {
		out[i] = b.demandOf(fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pred < out[j].Pred })
	return out
}

func (b *BackwardAnalysis) demandOf(fn term.Functor) Demand {
	d := Demand{Pred: b.sys.tab.FuncString(fn)}
	p, ok := b.res.DemandFor(fn)
	if !ok || p == nil {
		return d
	}
	d.Callable = true
	d.Call = p.String(b.sys.tab)
	d.Args = make([]DemandArg, len(p.Args))
	for i, a := range p.Args {
		d.Args[i] = DemandArg{Type: typeOf(a.Kind)}
	}
	return d
}

// Stats returns the run statistics.
func (b *BackwardAnalysis) Stats() BackwardStats {
	return BackwardStats{
		Steps:        b.res.Steps,
		Iterations:   b.res.Iterations,
		VisitedSCCs:  b.res.VisitedSCCs,
		TotalSCCs:    b.res.TotalSCCs,
		ReusedSCCs:   b.res.ReusedSCCs,
		ExecutedSCCs: b.res.ExecutedSCCs,
		CondenseMS:   b.res.CondenseDur.Milliseconds(),
		ForwardMS:    b.res.ForwardDur.Milliseconds(),
		SolveMS:      b.res.SolveDur.Milliseconds(),
	}
}
