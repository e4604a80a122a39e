package backward

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"awam/internal/cache"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/inc"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// ErrUnknownGoal reports a demand query for a predicate the program
// neither defines nor calls; the facade maps it onto its typed option
// error.
var ErrUnknownGoal = errors.New("unknown goal predicate")

// fpFormat is the fingerprint schema salt for backward demand records:
// the condensation and content hashing are shared with the forward
// engine, but the two record universes must never satisfy each other's
// probes, even through a shared store.
const fpFormat = "awam-bwd-fp 1"

// Config parameterizes one backward analysis. The zero value selects
// the defaults (depth 4, 50M-step budget, goals from the module).
type Config struct {
	// Depth is the widening depth bound demands are closed under — the
	// same k as the forward analysis, and part of the cache salt.
	Depth int
	// MaxSteps bounds backward transfer steps; exceeding it aborts with
	// an error wrapping core.ErrStepLimit.
	MaxSteps int64
	// Goals are the demand entry points. Empty means main/0 when
	// defined, else every source-level predicate (expansion auxiliaries
	// excluded).
	Goals []term.Functor
}

// planContext is the configuration salt of the demand fingerprints.
func planContext(depth int) string { return fmt.Sprintf("bwd depth=%d", depth) }

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 50_000_000
	}
	return c
}

// Engine runs demand queries against a summary store. Like the forward
// inc.Engine it is stateless apart from the store, so one engine serves
// many modules and the daemon shares one across requests.
type Engine struct {
	store cache.ChunkStore
}

// NewEngine returns an engine over store; a nil store gets a private
// in-memory store with the default budget.
func NewEngine(store cache.ChunkStore) *Engine {
	if store == nil {
		store, _ = cache.New() // memory-only construction cannot fail
	}
	return &Engine{store: store}
}

// Store exposes the engine's summary store (for stats and tests).
func (e *Engine) Store() cache.ChunkStore { return e.store }

// prefetcher and flusher mirror the optional tiered-store hooks the
// forward engine uses (see internal/inc): batch-fault the cone's
// fingerprints up front, ship novel records at the end.
type prefetcher interface {
	Prefetch(fps []cache.Fingerprint)
}

type flusher interface {
	Flush()
}

// Analyze infers demands for cfg.Goals over the condensed module c.Mod
// and its clause-level program exp. exp is the control-expanded form of
// the program c.Mod was compiled from (compiler.ExpandedProgram, or the
// expansion compiler.CompileExpanded returns with the module): demands
// are computed over its clauses, whose auxiliary predicates line up with
// the compiled module's by construction. Both are only read, so one
// condensation and one expansion serve every query on a module, and the
// condensation can be shared with the forward engine and the
// specializer; only the demanded cone is fingerprinted.
func (e *Engine) Analyze(ctx context.Context, c *inc.Condensation, exp *term.Program, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("backward: negative depth %d", cfg.Depth)
	}
	if cfg.MaxSteps < 0 {
		return nil, fmt.Errorf("backward: negative step budget %d", cfg.MaxSteps)
	}
	mod := c.Mod
	tab := mod.Tab
	builtins := wam.Builtins(tab)

	t0 := time.Now()
	goals := cfg.Goals
	if len(goals) == 0 {
		goals = defaultGoals(tab, mod)
	}
	for _, g := range goals {
		if _, ok := c.PredSCC[g]; !ok {
			return nil, fmt.Errorf("backward: %w %s", ErrUnknownGoal, tab.FuncString(g))
		}
	}
	visited := demandCone(tab, c, exp, builtins, goals)
	plan := c.Fingerprint(fpFormat, planContext(cfg.Depth), nil, visited)

	res := &Result{
		Tab:         tab,
		Plan:        plan,
		Program:     exp,
		Demands:     make(map[term.Functor]*domain.Pattern),
		Visited:     visited,
		VisitedSCCs: len(visited),
		TotalSCCs:   len(plan.SCCs),
	}
	res.CondenseDur = time.Since(t0)

	if p, ok := e.store.(prefetcher); ok {
		var fps []cache.Fingerprint
		for _, idx := range visited {
			if !plan.SCCs[idx].Undefined {
				fps = append(fps, cache.Fingerprint(plan.Fingerprints[idx]))
			}
		}
		p.Prefetch(fps)
	}

	succ := make(map[term.Functor]*domain.Pattern)
	sol := &solver{
		tab:      tab,
		prog:     exp,
		builtins: builtins,
		depth:    cfg.Depth,
		demands:  res.Demands,
		succ:     succ,
		arithOps: arithFunctors(tab),
		steps:    &res.Steps,
	}
	// The forward success pre-pass runs at most once, and only when a
	// component actually needs solving: a fully-served query must not
	// pay for (or depend on) any forward work.
	forwardDone := false
	ensureForward := func() error {
		if forwardDone {
			return nil
		}
		forwardDone = true
		t := time.Now()
		defer func() { res.ForwardDur = time.Since(t) }()
		var entries []*domain.Pattern
		for _, idx := range visited {
			scc := plan.SCCs[idx]
			if scc.Undefined {
				continue
			}
			for _, m := range scc.Members {
				entries = append(entries, allAny(m))
			}
		}
		// The pre-pass executes the plain transfer stream of the
		// fingerprinted cone only — the visited components closed under
		// callees, which is every predicate the entries can reach —
		// instead of building one for the whole module.
		var comps [][]term.Functor
		for i, scc := range plan.SCCs {
			if plan.Fingerprints[i] != "" && !scc.Undefined {
				comps = append(comps, scc.Members)
			}
		}
		spec := specialize.Build(mod, comps, nil, specialize.Options{})
		an := core.NewWith(mod, core.Config{Depth: cfg.Depth, Spec: spec})
		fres, err := an.AnalyzeEntriesContext(ctx, entries)
		if err != nil {
			return fmt.Errorf("backward: forward success pre-pass: %w", err)
		}
		// Each entry predicate's lubbed success, as fres.SuccessFor
		// computes it, in one pass over the table: SuccessFor per
		// predicate would rescan the whole table for each one.
		for _, en := range entries {
			succ[en.Fn] = nil
		}
		for _, e := range fres.Entries {
			if acc, ok := succ[e.CP.Fn]; ok && e.Succ != nil {
				succ[e.CP.Fn] = domain.LubPattern(fres.Tab, acc, e.Succ)
			}
		}
		return nil
	}

	solveStart := time.Now()
	for _, idx := range visited {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		scc := plan.SCCs[idx]
		if scc.Undefined {
			res.Demands[scc.Members[0]] = nil
			continue
		}
		fp := cache.Fingerprint(plan.Fingerprints[idx])
		if data, ok := e.store.Get(fp); ok {
			if ds, derr := decodeDemands(tab, scc, data); derr == nil {
				for i, m := range scc.Members {
					res.Demands[m] = ds[i]
				}
				res.ReusedSCCs++
				continue
			}
		}
		if err := ensureForward(); err != nil {
			return nil, err
		}
		if err := e.solveSCC(ctx, sol, scc, exp, cfg, res); err != nil {
			return nil, err
		}
		res.ExecutedSCCs++
		e.store.Put(fp, encodeDemands(tab, scc, res.Demands))
	}
	res.SolveDur = time.Since(solveStart)
	if f, ok := e.store.(flusher); ok {
		f.Flush()
	}
	res.Store = e.store.Stats()
	return res, nil
}

// defaultGoals is main/0 when defined, else every source predicate —
// the expansion auxiliaries ($or/$ite/$not) are implementation detail,
// not something a library author asks demands for.
func defaultGoals(tab *term.Tab, mod *wam.Module) []term.Functor {
	main := tab.Func("main", 0)
	if mod.Proc(main) != nil {
		return []term.Functor{main}
	}
	var goals []term.Functor
	for _, fn := range mod.Order {
		if !strings.HasPrefix(tab.Name(fn.Name), "$") {
			goals = append(goals, fn)
		}
	}
	if len(goals) == 0 {
		goals = append(goals, mod.Order...)
	}
	return goals
}

// demandCone returns the component indices the demand computation must
// visit, ascending: the goal components plus everything reachable over
// demand edges — body calls to user predicates, with negation
// auxiliaries excluded (backward demands nothing from \+ G) and
// fail-containing clauses skipped (their demand is bottom regardless of
// any callee).
func demandCone(tab *term.Tab, cond *inc.Condensation, exp *term.Program, builtins map[term.Functor]wam.BuiltinID, goals []term.Functor) []int {
	seen := make(map[int]bool)
	var queue []int
	for _, g := range goals {
		if idx, ok := cond.PredSCC[g]; ok && !seen[idx] {
			seen[idx] = true
			queue = append(queue, idx)
		}
	}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		scc := cond.SCCs[idx]
		if scc.Undefined {
			continue
		}
		for _, m := range scc.Members {
			for _, c := range exp.ClausesOf(m) {
				if clauseHasFail(tab, c) {
					continue
				}
				for _, g := range c.Body {
					if g.Kind != term.KAtom && g.Kind != term.KStruct {
						continue
					}
					fn := g.Fn
					if fn.Arity == 0 && (fn.Name == tab.Cut || fn.Name == tab.True) {
						continue
					}
					if _, isB := builtins[fn]; isB {
						continue
					}
					if isNotAux(tab, fn) {
						continue
					}
					if j, ok := cond.PredSCC[fn]; ok && !seen[j] {
						seen[j] = true
						queue = append(queue, j)
					}
				}
			}
		}
	}
	visited := make([]int, 0, len(seen))
	for idx := range seen {
		visited = append(visited, idx)
	}
	sort.Ints(visited)
	return visited
}

func clauseHasFail(tab *term.Tab, c term.Clause) bool {
	for _, g := range c.Body {
		if g.Kind == term.KAtom && g.Fn.Arity == 0 && g.Fn.Name == tab.Fail {
			return true
		}
	}
	return false
}

// solveSCC runs the descending Kleene iteration for one component: all
// members start at the all-any demand (no constraint) and shrink until
// the sweep is a no-op. Each sweep computes every member from the same
// snapshot, so the result is schedule-free. The iteration cap is a
// backstop against oscillation through the widened lattice; hitting it
// commits the sound answer (bottom) for the whole component.
func (e *Engine) solveSCC(ctx context.Context, s *solver, scc *inc.SCC, exp *term.Program, cfg Config, res *Result) error {
	const maxIter = 256
	for _, m := range scc.Members {
		s.demands[m] = allAny(m)
	}
	for iter := 1; ; iter++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if iter > maxIter {
			for _, m := range scc.Members {
				s.demands[m] = nil
			}
			res.Iterations += maxIter
			return nil
		}
		changed := false
		next := make([]*domain.Pattern, len(scc.Members))
		for k, m := range scc.Members {
			var nd *domain.Pattern
			if s.succ[m] != nil {
				// A predicate the forward analysis proves unable to succeed
				// has no safe call at all; otherwise one clause suffices, so
				// clause demands join.
				for _, c := range exp.ClausesOf(m) {
					nd = domain.LubPattern(s.tab, nd, s.clauseDemand(c))
					if *s.steps > cfg.MaxSteps {
						return fmt.Errorf("backward: %w", core.ErrStepLimit)
					}
				}
				nd = domain.WidenPattern(s.tab, nd, s.depth)
			}
			next[k] = nd
			if !eqPattern(s.demands[m], nd) {
				changed = true
			}
		}
		for k, m := range scc.Members {
			s.demands[m] = next[k]
		}
		if !changed {
			res.Iterations += iter
			return nil
		}
	}
}

func eqPattern(p, q *domain.Pattern) bool {
	if p == nil || q == nil {
		return p == q
	}
	return p.Equal(q)
}

func allAny(fn term.Functor) *domain.Pattern {
	args := make([]*domain.Term, fn.Arity)
	for i := range args {
		args[i] = domain.Top()
	}
	return domain.NewPattern(fn, args)
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	default:
		return nil
	}
}
