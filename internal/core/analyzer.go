package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"awam/internal/domain"
	"awam/internal/rt"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// Config holds analyzer options.
type Config struct {
	// Depth is the term-depth restriction k (the paper uses 4).
	Depth int
	// Indexing lets the abstract machine consult switch instructions
	// when the dispatch argument is concrete enough (structure functor,
	// nil, constant class), exploring only the matching clauses.
	Indexing bool
	// MaxSteps bounds the number of abstract instructions executed.
	MaxSteps int64
	// Strategy selects the fixpoint algorithm: the paper's naive
	// iteration (default) or the dependency-tracking worklist.
	Strategy Strategy
	// Tracer, when non-nil, receives analysis events (observe.go). A nil
	// tracer costs one pointer test per abstract instruction.
	Tracer Tracer
	// Spec, when non-nil, is the specialized transfer program
	// (internal/specialize) the analysis executes: fused
	// superinstructions, pre-resolved call sites and, under PreIntern,
	// static call sites whose calling pattern is abstracted and interned
	// once per analysis. Nil runs the plain stream, built once per
	// Analyzer when the first analysis starts. Results are
	// byte-identical either way (exec.go documents the contract), and
	// a Tracer observes the same events.
	Spec *specialize.Program
	// Warm, when non-nil, supplies converged summaries from a previous
	// analysis of an unchanged program region (the incremental engine,
	// internal/inc). Supported by StrategyWorklist only; Validate rejects
	// other strategies. The caller is responsible for only seeding
	// summaries whose entire callee cone is unchanged — the engine trusts
	// them as post-fixpoint values.
	Warm WarmStart
}

// WarmStart answers warm-start probes for the worklist fixpoint: cached
// converged summaries for calling patterns whose predicate (and its
// entire transitive callee cone) is unchanged since the caching run.
// Seeded entries are inserted into the extension table as already
// converged — never explored, never enqueued — so an analysis touches
// only the dirty cone of an edit.
//
// Patterns are named by their IDs in the analyzer's interner
// (Analyzer.Interner): the caller interns the cached patterns into it
// after NewWith and before the analysis runs. The engine calls
// sequentially under StrategyWorklist.
type WarmStart interface {
	// Seed returns the converged success pattern for the calling pattern
	// id. ok=false means the pattern is not cached and must be explored
	// normally; succ domain.BottomID with ok=true seeds a converged
	// bottom (the call can never succeed).
	Seed(id domain.PatternID) (succ domain.PatternID, ok bool)
	// Trace returns the finalize-phase consultation list recorded for
	// the cached calling pattern id: the callee calling patterns first
	// consulted by the entry's clauses, in discovery order. The finalize
	// pass replays it so the presentation table is rebuilt byte-identically
	// without re-executing the entry's clauses.
	Trace(id domain.PatternID) []domain.PatternID
}

// DefaultConfig matches the paper's prototype: k = 4, indexing-aware
// clause selection. The extension table is always the ID-indexed one
// (table.go), not the paper's linear list.
func DefaultConfig() Config {
	return Config{Depth: 4, Indexing: true, MaxSteps: 500_000_000}
}

// Validate rejects configurations that cannot be meant: negative values
// where only counts make sense, or enum fields outside their range. Zero
// values are always valid (they select documented defaults).
func (c Config) Validate() error {
	if c.Depth < 0 {
		return fmt.Errorf("core: invalid config: negative depth %d", c.Depth)
	}
	if c.MaxSteps < 0 {
		return fmt.Errorf("core: invalid config: negative step budget %d", c.MaxSteps)
	}
	switch c.Strategy {
	case StrategyNaive, StrategyWorklist:
	default:
		return fmt.Errorf("core: invalid config: unknown strategy %d", c.Strategy)
	}
	if c.Warm != nil && c.Strategy != StrategyWorklist {
		return fmt.Errorf("core: invalid config: warm start requires the worklist strategy")
	}
	return nil
}

// ErrStepLimit reports an exceeded abstract step budget.
var ErrStepLimit = errors.New("core: abstract step limit exceeded")

// ErrCanceled reports an analysis stopped by its context; it wraps the
// context's cause (errors.Is also matches context.Canceled or
// context.DeadlineExceeded).
var ErrCanceled = errors.New("core: analysis canceled")

// Analyzer is an abstract WAM over one compiled module.
type Analyzer struct {
	mod *wam.Module
	tab *term.Tab
	cfg Config

	h     *rt.Heap
	x     []rt.Cell
	table *DenseTable
	// in is the analysis-wide hash-conser: every canonical pattern the
	// engine handles is interned to a dense domain.PatternID, and all
	// tables, worklists and dependency maps key on those IDs. memo
	// caches the pattern-level lattice operations on IDs.
	in   *domain.Interner
	memo *domain.Memo
	// At most one of wl, fin is non-nil while the corresponding phase
	// runs; solve dispatches on them (neither: the naive fixpoint).
	wl  *wlState
	fin *finState
	// ctx, when non-nil, cancels the analysis (checked every few
	// thousand abstract instructions).
	ctx context.Context
	// rec records each entry's last completed exploration under the
	// naive or worklist fixpoint; the naive fixpoint replays unchanged
	// explorations from it, finalize presents entries from it
	// (finalize.go) and drops it when it returns. naiveReplayOff, set
	// only by tests, makes every naive exploration run its clauses.
	rec            recorder
	naiveReplayOff bool

	// Stream-engine state (exec.go). spec is cfg.Spec or, when that is
	// nil, the plain stream; staticCalls caches the calling patterns of
	// its static call sites, one row per component, each allocated when
	// the component first reaches one.
	spec        *specialize.Program
	staticCalls [][]staticPat
	envPool     [][]rt.Cell
	argPool     [][]int
	absScratch  *abstractor
	absBusy     map[int]bool
	habs        heapAbs
	matGroups   map[int]genInt
	matGen      uint64
	// absCheck, when set, sees every abstraction: whether it took the
	// heap path, and the ID it gave. Only tests set it (export_test.go).
	absCheck func(heap bool, fn term.Functor, argAddrs []int, id domain.PatternID)

	// Observability state (observe.go). met is the run's counter set
	// (never nil); tr mirrors cfg.Tracer. attrFn/attrStart attribute step
	// deltas to predicates at exploration boundaries. heapHW tracks the
	// high-water mark across discarded fixpoint heaps.
	met       *counters
	tr        Tracer
	attrFn    term.Functor
	attrStart int64
	heapHW    int

	// Steps counts executed abstract instructions — the paper's "Exec"
	// column in Table 1. It is also the step budget's meter: charge
	// fails the run once it reaches cfg.MaxSteps.
	Steps int64
	// Iterations counts fixpoint passes.
	Iterations int

	iter    int
	changed bool
	err     error
	// Warnings collects non-fatal analysis notes (e.g. success-pattern
	// application mismatches, which indicate precision loss).
	Warnings []string
}

// New returns an analyzer for mod with the default configuration.
func New(mod *wam.Module) *Analyzer { return NewWith(mod, DefaultConfig()) }

// NewWith returns an analyzer with an explicit configuration. Zero
// values select defaults (depth 4, 500M-step budget); invalid values are
// rejected by Config.Validate when the analysis runs, not clamped here.
func NewWith(mod *wam.Module, cfg Config) *Analyzer {
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	a := &Analyzer{mod: mod, tab: mod.Tab, cfg: cfg, x: make([]rt.Cell, 16)}
	a.met = newCounters()
	a.tr = cfg.Tracer
	a.in = domain.NewInterner()
	a.memo = domain.NewMemo()
	return a
}

// Interner returns the analyzer's hash-conser, whose IDs name patterns
// to a WarmStart. Interning into it before the analysis runs changes no
// result.
func (a *Analyzer) Interner() *domain.Interner { return a.in }

// StartFrom makes the analyzer intern into in instead of an empty
// interner: a clone (domain.Interner.Clone) of an earlier analysis'
// interner over a symbol table that spells every atom its nodes use as
// this analysis' table does (domain.Interner.Atoms), whose IDs a
// WarmStart may already use. Like interning before the analysis runs,
// it changes no result. Call it before the analysis runs.
func (a *Analyzer) StartFrom(in *domain.Interner) { a.in = in }

// intern resolves cp to its hash-consed ID, counting interner traffic.
func (a *Analyzer) intern(cp *domain.Pattern) domain.PatternID {
	id, hit := a.in.Intern(cp)
	a.countIntern(hit)
	return id
}

// countIntern counts one pattern intern as a hit or a miss.
func (a *Analyzer) countIntern(hit bool) {
	if hit {
		a.met.internHits++
	} else {
		a.met.internMisses++
	}
}

// leqSumm reports sp ⊑ succ on interned summaries, memoized so the
// common steady-state check (a clause success already below the
// accumulated summary) is a map probe instead of a graph walk.
func (a *Analyzer) leqSumm(spID, succID domain.PatternID) bool {
	if spID == succID {
		return true
	}
	v, ok := a.memo.Leq(spID, succID)
	if !ok {
		v = domain.LeqPattern(a.tab, a.in.Pattern(spID), a.in.Pattern(succID))
		a.memo.SetLeq(spID, succID, v)
	}
	return v
}

// mergeSumm computes widen(lub(succ, sp), k) — the summary merge every
// strategy performs — through the ID-keyed memo caches, returning the
// interned result. On the widened subdomain (the only values the table
// holds) this merge is an idempotent, commutative, associative join
// (domain/laws_test.go), which is what makes the converged table
// schedule-independent. The lub cache is the one surfaced in Metrics
// (LubCacheHits/Misses); the widen cache rides on its output.
func (a *Analyzer) mergeSumm(succID, spID domain.PatternID) (domain.PatternID, *domain.Pattern) {
	lubID, ok := a.memo.Lub(succID, spID)
	if ok {
		a.met.lubHits++
	} else {
		a.met.lubMisses++
		l := domain.LubPattern(a.tab, a.in.Pattern(succID), a.in.Pattern(spID))
		lubID = a.intern(l)
		a.memo.SetLub(succID, spID, lubID)
	}
	nextID, ok := a.memo.Widen(lubID)
	if !ok {
		w := domain.WidenPattern(a.tab, a.in.Pattern(lubID), a.cfg.Depth)
		nextID = a.intern(w)
		a.memo.SetWiden(lubID, nextID)
	}
	return nextID, a.in.Pattern(nextID)
}

func (a *Analyzer) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// warnOnce records a warning the first time it occurs.
func (a *Analyzer) warnOnce(msg string) {
	for _, w := range a.Warnings {
		if w == msg {
			return
		}
	}
	a.Warnings = append(a.Warnings, msg)
}

func (a *Analyzer) ensureX(n int) {
	for len(a.x) <= n {
		a.x = append(a.x, rt.Cell{})
	}
}

// Result is the outcome of an analysis: the extension table contents
// plus run statistics.
type Result struct {
	Tab *term.Tab
	// Entries lists (calling pattern, success pattern) pairs in
	// discovery order.
	Entries []*Entry
	// Steps, Iterations and TableSize are the run statistics reported in
	// the paper's Table 1.
	Steps      int64
	Iterations int
	TableSize  int
	Warnings   []string
	// Metrics is the run's merged instrumentation (observe.go). Always
	// populated; covers the fixpoint phase only, so its totals match
	// Steps.
	Metrics *Metrics
	// Texts, when set, is a memo of pattern texts Marshal reads and
	// fills, shared beyond this result (the incremental engine keeps one
	// with its interner snapshot). Nil renders every pattern here.
	Texts domain.TextMemo
}

// AnalyzeMain analyzes the program from the conventional entry point
// main/0 — the paper's "given top-level calling pattern".
func (a *Analyzer) AnalyzeMain() (*Result, error) {
	return a.Analyze(domain.NewPattern(a.tab.Func("main", 0), nil))
}

// AnalyzeAll analyzes from main/0 when present, and otherwise (or
// additionally, for predicates never reached) from an all-any calling
// pattern per predicate, so every predicate gets information.
func (a *Analyzer) AnalyzeAll() (*Result, error) {
	return a.AnalyzeAllContext(context.Background())
}

// AnalyzeAllContext is AnalyzeAll honoring ctx: cancellation or deadline
// expiry stops the fixpoint with an error wrapping ErrCanceled.
func (a *Analyzer) AnalyzeAllContext(ctx context.Context) (*Result, error) {
	a.ctx = ctx
	return a.analyze(a.allEntries())
}

// allEntries is AnalyzeAll's entry set: main/0 when present, otherwise
// an all-any calling pattern per predicate.
func (a *Analyzer) allEntries() []*domain.Pattern {
	if a.mod.Proc(a.tab.Func("main", 0)) != nil {
		return []*domain.Pattern{domain.NewPattern(a.tab.Func("main", 0), nil)}
	}
	var entries []*domain.Pattern
	for _, fn := range a.mod.Order {
		args := make([]*domain.Term, fn.Arity)
		for i := range args {
			args[i] = domain.Top()
		}
		entries = append(entries, domain.NewPattern(fn, args))
	}
	return entries
}

// Analyze runs the extension-table fixpoint from the given top-level
// calling pattern.
func (a *Analyzer) Analyze(entry *domain.Pattern) (*Result, error) {
	return a.AnalyzeContext(context.Background(), entry)
}

// AnalyzeContext is Analyze honoring ctx; see AnalyzeAllContext.
func (a *Analyzer) AnalyzeContext(ctx context.Context, entry *domain.Pattern) (*Result, error) {
	a.ctx = ctx
	return a.analyze([]*domain.Pattern{entry})
}

// AnalyzeEntriesContext runs the fixpoint from an explicit entry set —
// the hook alternate analyses use to obtain success patterns for an
// exact predicate set (internal/backward seeds it with an all-any
// pattern per predicate of a demanded cone). Entries are widened at
// ingest like any caller-supplied pattern.
func (a *Analyzer) AnalyzeEntriesContext(ctx context.Context, entries []*domain.Pattern) (*Result, error) {
	a.ctx = ctx
	return a.analyze(entries)
}

func (a *Analyzer) analyze(entries []*domain.Pattern) (*Result, error) {
	entries, err := a.prepare(entries)
	if err != nil {
		return nil, err
	}
	execStart := time.Now()
	err = a.fixpoint(entries)
	execDur := time.Since(execStart)
	if errors.Is(err, errNoConvergence) {
		return &Result{
			Tab:        a.tab,
			Entries:    a.table.Entries(),
			Steps:      a.Steps,
			Iterations: a.Iterations,
			TableSize:  a.table.Len(),
			Warnings:   a.Warnings,
			Metrics:    a.buildMetrics(execDur, 0),
		}, err
	}
	if err != nil {
		return nil, err
	}
	// Present the converged table deterministically (finalize.go): the
	// raw naive and worklist tables retain transient calling patterns
	// whose shape depends on the exploration schedule, so they serve as
	// the converged summaries while the finalize pass rebuilds the reported
	// entries. This makes the two strategies byte-comparable.
	return a.present(entries, execDur)
}

// prepare validates the configuration, builds the transfer program on
// first use and widens the caller's entry patterns.
func (a *Analyzer) prepare(entries []*domain.Pattern) ([]*domain.Pattern, error) {
	if err := a.cfg.Validate(); err != nil {
		return nil, err
	}
	if a.ctx == context.Background() {
		a.ctx = nil // skip per-tick Done checks for the common case
	}
	if a.ctx != nil {
		select {
		case <-a.ctx.Done():
			return nil, fmt.Errorf("%w: %w", ErrCanceled, a.ctx.Err())
		default:
		}
	}
	if a.spec == nil {
		a.spec = a.cfg.Spec
		if a.spec == nil {
			a.spec = specialize.Build(a.mod, nil, nil, specialize.Options{})
		}
	}
	// The extension table only ever stores widened canonical patterns —
	// the invariant behind schedule confluence (every stored element is a
	// fixed point of the Widen closure, on which lub∘widen is
	// associative). Internally generated patterns are widened by
	// abstractArgs and mergeSumm; caller-supplied entry patterns are
	// closed here at ingest.
	widened := make([]*domain.Pattern, len(entries))
	for i, e := range entries {
		widened[i] = domain.WidenPattern(a.tab, e.Canonical(), a.cfg.Depth)
	}
	return widened, nil
}

// errNoConvergence reports a naive fixpoint that hit its iteration
// backstop.
var errNoConvergence = errors.New("core: fixpoint did not converge")

// fixpoint runs the naive or worklist fixpoint to convergence, leaving
// the converged table in a.table and each entry's last exploration in
// a.rec.
func (a *Analyzer) fixpoint(entries []*domain.Pattern) error {
	a.table = NewDenseTable()
	a.Steps = 0
	a.err = nil
	a.rec = recorder{}
	if a.cfg.Strategy == StrategyWorklist {
		return a.fixWorklist(entries)
	}
	const maxIterations = 1000 // backstop; the finite domain terminates first
	for a.Iterations = 1; a.Iterations <= maxIterations; a.Iterations++ {
		a.iter = a.Iterations
		a.changed = false
		if a.tr != nil {
			a.tr.Iteration(a.Iterations)
		}
		a.noteHeap()
		a.resetHeap()
		for _, e := range entries {
			a.solve(e.Canonical())
			if a.err != nil {
				return a.err
			}
		}
		// Re-explore every remaining table entry. A calling pattern can
		// stop being reached from the entry point as summaries grow (its
		// callers' inner calls widen to different keys), yet its own
		// summary must still reach the fixpoint — otherwise a stale,
		// under-approximate entry survives in the final table.
		for i := 0; i < a.table.Len(); i++ {
			e := a.table.Entries()[i]
			if e.exploredIter != a.iter {
				a.solve(e.CP)
				if a.err != nil {
					return a.err
				}
			}
		}
		if !a.changed {
			break
		}
	}
	a.attrClose()
	a.noteHeap()
	if a.Iterations > maxIterations {
		return fmt.Errorf("%w in %d iterations", errNoConvergence, maxIterations)
	}
	return nil
}

// tick is the periodic safety check inside charge (every few thousand
// abstract instructions): context cancellation, on top of the
// per-instruction step-budget check.
func (a *Analyzer) tick() bool {
	if a.ctx != nil {
		select {
		case <-a.ctx.Done():
			a.fail(fmt.Errorf("%w: %w", ErrCanceled, a.ctx.Err()))
			return false
		default:
		}
	}
	return true
}

// solve explores a top-level calling pattern (the entry loops):
// solveID over its interned ID.
func (a *Analyzer) solve(cp *domain.Pattern) *domain.Pattern {
	return a.solveID(cp, a.intern(cp))
}

// resetHeap empties the heap between top-level explorations, keeping its
// capacity: nothing survives between them.
func (a *Analyzer) resetHeap() {
	if a.h == nil {
		a.h = rt.NewHeap()
	} else {
		a.h.Reset()
	}
}

// solveNaiveID is the reinterpreted call under the naive strategy: the
// table entry's success pattern, exploring the entry once per iteration.
func (a *Analyzer) solveNaiveID(cp *domain.Pattern, id domain.PatternID) *domain.Pattern {
	if a.err != nil {
		return nil
	}
	t0, timed := a.met.sampleTable()
	e := a.table.Get(id)
	a.met.doneTable(t0, timed)
	if e != nil {
		a.met.hits++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableHit)
		}
		if e.exploredIter == a.iter {
			// Memoized for this iteration (possibly in-flight: a
			// recursive call sees the last known success pattern).
			e.Lookups++
			return e.Succ
		}
	} else {
		e = &Entry{ID: id, CP: a.in.Pattern(id)}
		a.table.Add(e)
		a.met.misses++
		a.met.inserts++
		if a.tr != nil {
			a.tr.Table(cp.Fn, TableMiss)
			a.tr.Table(cp.Fn, TableInsert)
		}
	}
	e.exploredIter = a.iter
	if a.replayNaive(e) {
		return e.Succ
	}
	a.met.naiveExecuted++
	prevRec := a.beginRec(id)
	defer a.endRec(id, prevRec)

	proc := a.mod.Proc(cp.Fn)
	if proc == nil {
		// Undefined predicates fail (and were warned about at compile
		// time); their success pattern stays bottom.
		return e.Succ
	}

	a.met.predRuns[cp.Fn]++
	prevFn := a.attrSwitch(cp.Fn)
	defer a.attrRestore(prevFn)
	for _, clauseAddr := range a.selectClauses(proc, cp) {
		mark := a.h.Mark()
		argAddrs := a.materialize(e.CP)
		a.ensureX(cp.Fn.Arity)
		for i, addr := range argAddrs {
			a.x[i+1] = rt.MkRef(addr)
		}
		ok := a.run(clauseAddr)
		if a.err != nil {
			return nil
		}
		if ok {
			spID := a.abstractID(cp.Fn, argAddrs)
			a.noteSucc(spID)
			// Fast path: a success pattern below the accumulated one
			// cannot change it (the common case after the first
			// iteration), so skip the graph lub entirely.
			if e.succID == domain.BottomID || !a.leqSumm(spID, e.succID) {
				nextID, next := a.mergeSumm(e.succID, spID)
				if nextID != e.succID {
					e.Succ = next
					e.succID = nextID
					e.Updates++
					a.changed = true
					a.met.updates++
					if a.tr != nil {
						a.tr.Table(cp.Fn, TableUpdate)
					}
				}
			}
		}
		// The paper's "artificial failure": undo and explore the next
		// clause regardless of success.
		a.h.Undo(mark)
	}
	return e.Succ
}

// replayNaive stands in for e's exploration in this pass when its last
// one still holds: it replays e's record (replayRec) and reports whether
// every recorded callee returned the summary that exploration read.
// Running the clauses is a deterministic function of the calling
// pattern and the summaries read (a callee's summary moves only inside
// its own exploration, finished or suspended meanwhile, so every read
// returns the first; a self-read matches only if it already returned
// e's final summary), so a rerun would only re-merge successes already
// in e.Succ: the record stays and nothing is marked changed.
// Recording is suspended for the walk; a callee explored inside it
// records its own stream. At a mismatch the clauses run and the prefix
// reads repeat as memo hits.
func (a *Analyzer) replayNaive(e *Entry) bool {
	if a.naiveReplayOff {
		return false
	}
	prev := a.beginRec(domain.BottomID)
	_, _, ok := a.replayRec(e.ID, nil)
	a.rec.cur, a.rec.base = prev.cur, prev.base
	if ok {
		a.met.naiveReplayed++
	}
	return ok
}

// selectClauses returns the clause addresses to explore for cp,
// consulting the predicate's indexing instructions when the dispatch
// argument is concrete enough (Section 5 notes indexing reinterprets
// almost unchanged; with an abstract dispatch argument all clauses are
// explored).
func (a *Analyzer) selectClauses(proc *wam.Proc, cp *domain.Pattern) []int {
	if !a.cfg.Indexing || len(proc.Clauses) < 2 || len(cp.Args) == 0 {
		return proc.Clauses
	}
	entry := a.mod.Code[proc.Entry]
	if entry.Op != wam.OpSwitchOnTerm {
		return proc.Clauses
	}
	sw := a.mod.Switch(entry)
	allowed := make(map[int]bool)
	addAll := func(addrs []int) {
		for _, ad := range addrs {
			allowed[ad] = true
		}
	}
	arg := cp.Args[0]
	switch arg.Kind {
	case domain.Nil:
		addAll(a.constTargets(sw.LC, func(k wam.ConstKey) bool {
			return !k.IsInt && k.A == a.tab.Nil
		}))
	case domain.Atom:
		addAll(a.constTargets(sw.LC, func(k wam.ConstKey) bool { return !k.IsInt }))
	case domain.Intg:
		addAll(a.constTargets(sw.LC, func(k wam.ConstKey) bool { return k.IsInt }))
	case domain.Const:
		addAll(a.constTargets(sw.LC, func(wam.ConstKey) bool { return true }))
	case domain.List:
		addAll(a.chainTargets(sw.LL))
		addAll(a.constTargets(sw.LC, func(k wam.ConstKey) bool {
			return !k.IsInt && k.A == a.tab.Nil
		}))
	case domain.Struct:
		if arg.Fn.Name == a.tab.Dot && arg.Fn.Arity == 2 {
			addAll(a.chainTargets(sw.LL))
		} else if sw.LS != wam.FailAddr {
			if tblIns := a.mod.Code[sw.LS]; tblIns.Op == wam.OpSwitchOnStruct {
				tbl := a.mod.Switch(tblIns)
				if tgt, ok := tbl.TblS[arg.Fn]; ok {
					addAll(a.chainTargets(tgt))
				}
				if tbl.LD != 0 {
					// Optimizer tables default missing keys to the
					// var-headed clause block; those clauses stay
					// reachable for this functor.
					addAll(a.chainTargets(tbl.LD))
				}
			} else {
				addAll(a.chainTargets(sw.LS))
			}
		}
	default:
		return proc.Clauses
	}
	var out []int
	for _, c := range proc.Clauses {
		if allowed[c] {
			out = append(out, c)
		}
	}
	return out
}

// constTargets collects clause addresses reachable from a
// switch_on_constant for keys satisfying pred.
func (a *Analyzer) constTargets(addr int, pred func(wam.ConstKey) bool) []int {
	if addr == wam.FailAddr {
		return nil
	}
	ins := a.mod.Code[addr]
	if ins.Op != wam.OpSwitchOnConst {
		return a.chainTargets(addr)
	}
	tbl := a.mod.Switch(ins)
	var out []int
	for k, tgt := range tbl.TblC {
		if pred(k) {
			out = append(out, a.chainTargets(tgt)...)
		}
	}
	if tbl.LD != 0 {
		// A defaulted table (optimizer output) can dispatch any key to
		// the var-headed clause block as well.
		out = append(out, a.chainTargets(tbl.LD)...)
	}
	return out
}

// chainTargets resolves an indexing target: a clause address, or a
// try/retry/trust block listing several.
func (a *Analyzer) chainTargets(addr int) []int {
	if addr == wam.FailAddr || addr < 0 || addr >= len(a.mod.Code) {
		return nil
	}
	ins := a.mod.Code[addr]
	if ins.Op != wam.OpTry {
		return []int{addr}
	}
	var out []int
	for p := addr; p < len(a.mod.Code); p++ {
		c := a.mod.Code[p]
		switch c.Op {
		case wam.OpTry, wam.OpRetry:
			out = append(out, c.L)
		case wam.OpTrust:
			out = append(out, c.L)
			return out
		default:
			return out
		}
	}
	return out
}

// Report renders the extension table like the paper's discussion:
// calling pattern, success pattern, derived modes, and aliasing pairs.
// Run statistics (steps, iterations) are deliberately absent: they
// depend on the fixpoint strategy and schedule, while the report is a
// pure function of the analysis result (identical across strategies).
// Use Result.Steps/Iterations or awam.Analysis.Stats for the costs.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% extension table: %d calling patterns\n", r.TableSize)
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "call    %s\n", e.CP.String(r.Tab))
		if e.Succ == nil {
			b.WriteString("success bottom (no solution)\n")
		} else {
			fmt.Fprintf(&b, "success %s\n", e.Succ.String(r.Tab))
			if modes := Modes(r.Tab, e.CP, e.Succ); modes != "" {
				fmt.Fprintf(&b, "mode    %s\n", modes)
			}
			if pairs := e.Succ.ArgSharePairs(); len(pairs) > 0 {
				parts := make([]string, len(pairs))
				for i, p := range pairs {
					parts[i] = fmt.Sprintf("(%d,%d)", p[0]+1, p[1]+1)
				}
				fmt.Fprintf(&b, "alias   %s\n", strings.Join(parts, " "))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Modes derives a conventional mode declaration from a calling pattern
// and its success pattern: '+' ground at call, '-' free at call and
// bound at success, '?' otherwise; 'g' marks arguments ground at
// success.
func Modes(tab *term.Tab, cp, succ *domain.Pattern) string {
	parts := ArgModes(tab, cp, succ)
	if parts == nil {
		return ""
	}
	return tab.Name(cp.Fn.Name) + "(" + strings.Join(parts, ", ") + ")"
}

// ArgModes classifies each argument's mode transition as one of "+g",
// "+", "-g", "-", "-?" or "?" — the per-argument form behind Modes,
// consumed by the typed Summary API in the facade.
func ArgModes(tab *term.Tab, cp, succ *domain.Pattern) []string {
	if cp == nil || len(cp.Args) == 0 {
		return nil
	}
	parts := make([]string, len(cp.Args))
	for i, in := range cp.Args {
		out := in
		if succ != nil && i < len(succ.Args) {
			out = succ.Args[i]
		}
		ground := domain.MkLeaf(domain.Ground)
		nv := domain.MkLeaf(domain.NV)
		v := domain.MkLeaf(domain.Var)
		switch {
		case domain.Leq(tab, in, ground):
			parts[i] = "+g"
		case domain.Leq(tab, in, nv):
			parts[i] = "+"
		case domain.Leq(tab, in, v) && domain.Leq(tab, out, ground):
			parts[i] = "-g"
		case domain.Leq(tab, in, v) && domain.Leq(tab, out, nv):
			parts[i] = "-"
		case domain.Leq(tab, in, v):
			parts[i] = "-?"
		default:
			parts[i] = "?"
		}
	}
	return parts
}

// EntriesFor returns the table entries of one predicate.
func (r *Result) EntriesFor(fn term.Functor) []*Entry {
	var out []*Entry
	for _, e := range r.Entries {
		if e.CP.Fn == fn {
			out = append(out, e)
		}
	}
	return out
}

// SuccessFor lubs all success patterns recorded for fn, the summary the
// optimizer and the soundness tests consume. It returns nil when no call
// of fn ever succeeded.
func (r *Result) SuccessFor(fn term.Functor) *domain.Pattern {
	var acc *domain.Pattern
	for _, e := range r.Entries {
		if e.CP.Fn == fn && e.Succ != nil {
			acc = domain.LubPattern(r.Tab, acc, e.Succ)
		}
	}
	return acc
}

// CallFor lubs all calling patterns recorded for fn.
func (r *Result) CallFor(fn term.Functor) *domain.Pattern {
	var acc *domain.Pattern
	for _, e := range r.Entries {
		if e.CP.Fn == fn {
			acc = domain.LubPattern(r.Tab, acc, e.CP)
		}
	}
	return acc
}

// Predicates lists the analyzed predicates in a stable order: by name,
// then arity.
func (r *Result) Predicates() []term.Functor {
	fns, _ := r.Grouped()
	return fns
}

// Grouped returns the analyzed predicates in Predicates' order, and
// each one's entries in table order.
func (r *Result) Grouped() ([]term.Functor, [][]*Entry) {
	// Keyed by name and arity packed in one word: a map of word keys is
	// several times faster than one of Functor structs.
	at := make(map[uint64]int)
	g := byName{}
	for _, e := range r.Entries {
		key := uint64(uint32(e.CP.Fn.Name))<<32 | uint64(uint32(e.CP.Fn.Arity))
		i, seen := at[key]
		if !seen {
			i = len(g.fns)
			at[key] = i
			g.fns = append(g.fns, e.CP.Fn)
			g.groups = append(g.groups, nil)
		}
		g.groups[i] = append(g.groups[i], e)
	}
	// Each name is fetched once: Tab.Name takes the table's read lock.
	g.names = make([]string, len(g.fns))
	for i, fn := range g.fns {
		g.names[i] = r.Tab.Name(fn.Name)
	}
	sort.Sort(g)
	return g.fns, g.groups
}

// byName sorts predicates by name, then arity, over their prefetched
// names, with their entry groups.
type byName struct {
	fns    []term.Functor
	names  []string
	groups [][]*Entry
}

func (b byName) Len() int { return len(b.fns) }
func (b byName) Less(i, j int) bool {
	if b.names[i] != b.names[j] {
		return b.names[i] < b.names[j]
	}
	return b.fns[i].Arity < b.fns[j].Arity
}
func (b byName) Swap(i, j int) {
	b.fns[i], b.fns[j] = b.fns[j], b.fns[i]
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.groups[i], b.groups[j] = b.groups[j], b.groups[i]
}
