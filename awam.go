// Package awam is an abstract WAM: a compiled dataflow analyzer for
// logic programs, reproducing "Compiling Dataflow Analysis of Logic
// Programs" (Tan & Lin, PLDI 1992).
//
// The package bundles a complete pipeline behind a small, string-oriented
// API:
//
//   - a Prolog reader and a clause compiler producing standard WAM code,
//   - a concrete WAM that executes that code (Run, RunMain),
//   - the abstract WAM that reinterprets the same code over a mode/type/
//     aliasing domain with an extension-table fixpoint (Analyze),
//   - an analysis-driven code specializer (Optimize),
//   - the Section 5 source transformation printer (Transform), and
//   - a Prolog-hosted analyzer running on the concrete WAM (the paper's
//     comparison baseline, HostedAnalyze).
//
// Quick start:
//
//	sys, _ := awam.Load("main :- append([1,2],[3],X), use(X). ...")
//	analysis, _ := sys.Analyze()
//	fmt.Print(analysis.Report())
package awam

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"awam/internal/backward"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/inc"
	"awam/internal/machine"
	"awam/internal/optimize"
	"awam/internal/plmeta"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/transform"
	"awam/internal/wam"
)

// Typed errors. Failures returned by Load, LoadFile, Analyze and
// AnalyzeContext wrap one of these sentinels (and the underlying cause),
// so callers can branch with errors.Is without string matching.
var (
	// ErrParse reports unreadable Prolog source or an unparsable entry
	// calling pattern.
	ErrParse = errors.New("awam: parse error")
	// ErrCompile reports source that parsed but could not be compiled to
	// WAM code.
	ErrCompile = errors.New("awam: compile error")
	// ErrRegisterLimit reports a clause that needs a register operand
	// above 65,535, such as a body argument nested 70,000 levels deep.
	// Errors wrapping it also wrap ErrCompile.
	ErrRegisterLimit = compiler.ErrRegisterLimit
	// ErrAnalysisBudget reports an analysis stopped by its abstract step
	// budget (WithMaxSteps).
	ErrAnalysisBudget = errors.New("awam: analysis budget exhausted")
	// ErrCanceled reports an analysis or optimization stopped by its
	// context; the error also wraps the context's cause
	// (context.Canceled or context.DeadlineExceeded).
	ErrCanceled = errors.New("awam: analysis canceled")
	// ErrBadOption reports an invalid analysis option value, such as a
	// negative depth.
	ErrBadOption = errors.New("awam: invalid analysis option")
)

// System is a loaded, compiled logic program. It is safe for concurrent
// use: its code is never modified after Load, its lazily built
// condensation, specialized program and private backward engine are
// each built once, each component's transfer stream is translated once,
// and its symbol table is synchronized. The analysis
// daemon shares one System across all requests for the same source.
type System struct {
	tab  *term.Tab
	prog *term.Program
	mod  *wam.Module
	// exp is prog after control-construct expansion, the clause-level
	// view mod implements; Load keeps the compiler's expansion so that
	// backward queries never expand the program again.
	exp *term.Program
	// src is what Derive reuses (derive.go): the source text, its
	// clauses and the module compiled from them. Systems made from this
	// one by StripUnreachable or Optimize share it.
	src *loadedSource
	// from is what a derived System builds its condensation and
	// specialized program from (derive.go); nil for a fresh load. The
	// base's condensation is dropped once this System's own is built,
	// the rest once its specialized program is.
	from atomic.Pointer[derivation]

	// cond is the module's SCC condensation, built once on first use and
	// shared by the specializer, the store-backed forward engine and the
	// backward engine; each of the two engines fingerprints it under its
	// own salt, and it memoizes the fingerprints.
	condOnce sync.Once
	cond     atomic.Pointer[inc.Condensation]

	// spec is the per-SCC specialized transfer program, built lazily on
	// the first specialized Analyze and shared by all later analyses of
	// this System (it depends only on the compiled code, not on analysis
	// options). A component's stream is translated when an analysis
	// first executes it.
	specOnce sync.Once
	spec     atomic.Pointer[specialize.Program]

	// bwdEng is the private backward-analysis engine, built lazily on the
	// first AnalyzeBackward without WithBackwardStore; its in-memory
	// store makes repeat demand queries on this System warm by default.
	bwdOnce sync.Once
	bwdEng  *backward.Engine
}

// condensation returns the System's shared SCC condensation, building
// it on first use: derived from the base's when the System was derived
// from one that had built its own.
func (s *System) condensation() *inc.Condensation {
	s.condOnce.Do(func() {
		if d := s.from.Load(); d != nil && d.cond != nil {
			s.cond.Store(d.cond.Derive(s.mod, d.copied))
			// Only specProgram still reads the derivation, and only its
			// specialized program: the base's condensation, which holds
			// the base's module, is dropped now.
			if d.spec != nil {
				s.from.Store(&derivation{spec: d.spec})
			} else {
				s.from.Store(nil)
			}
		} else {
			s.cond.Store(inc.NewCondensation(s.mod))
		}
	})
	return s.cond.Load()
}

// specProgram builds (once) the specialized abstract transfer program
// for this System's code: the shared condensation supplies the SCC
// components, a static opcode profile picks the fusion set, and
// pre-interning is enabled. A derived System derives it from the
// base's program over the condensation's map to the base's components.
// The streams themselves are translated per component as analyses
// reach them.
func (s *System) specProgram() *specialize.Program {
	s.specOnce.Do(func() {
		cond := s.condensation()
		comps := make([][]term.Functor, len(cond.SCCs))
		for i, scc := range cond.SCCs {
			comps[i] = scc.Members
		}
		if d := s.from.Load(); d != nil && d.spec != nil && cond.Base != nil {
			s.spec.Store(d.spec.Derive(s.mod, comps, cond.PredSCC, cond.Base))
		} else {
			s.spec.Store(specialize.BuildStatic(s.mod, comps, cond.PredSCC, specialize.Options{Fuse: true, PreIntern: true}))
		}
		s.from.Store(nil)
	})
	return s.spec.Load()
}

// Load parses and compiles Prolog source text. Unreadable source fails
// with an error wrapping ErrParse; source that parses but cannot be
// compiled fails with one wrapping ErrCompile. It is Derive from an
// empty System with a symbol table of its own.
func Load(source string) (*System, error) { return empty().Derive(source) }

// LoadFile loads a program from a file.
func LoadFile(path string) (*System, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(string(src))
}

// Disasm returns the WAM code listing.
func (s *System) Disasm() string { return s.mod.Disasm() }

// CodeSize returns the static instruction count (Table 1 "Size").
func (s *System) CodeSize() int { return s.mod.Size() }

// Predicates lists the defined predicates as name/arity strings.
func (s *System) Predicates() []string {
	out := make([]string, len(s.prog.Order))
	for i, fn := range s.prog.Order {
		out[i] = s.tab.FuncString(fn)
	}
	return out
}

// Transform returns the Section 5 extension-table transformation of the
// program.
func (s *System) Transform() string { return transform.Program(s.tab, s.prog) }

// Solution is one answer of a concrete execution.
type Solution struct {
	// OK reports whether the goal (still) has a solution.
	OK bool
	// Bindings maps query-variable names to their values, written as
	// Prolog terms.
	Bindings map[string]string

	sys *System
	sol *machine.Solution
}

// Run executes a goal on the concrete WAM and returns its first
// solution. The goal is compiled into a private copy of the code, so the
// System itself is not changed.
func (s *System) Run(goal string) (*Solution, error) {
	m := machine.New(s.mod.Clone())
	m.Out = os.Stdout
	sol, err := m.Solve(goal)
	if err != nil {
		return nil, err
	}
	out := &Solution{sys: s, sol: sol}
	out.refresh()
	return out, nil
}

// RunMain executes main/0 and reports success.
func (s *System) RunMain() (bool, error) {
	m := machine.New(s.mod)
	m.Out = os.Stdout
	return m.RunMain()
}

// Next backtracks into the next solution.
func (sol *Solution) Next() (bool, error) {
	ok, err := sol.sol.Next()
	sol.refresh()
	return ok, err
}

func (sol *Solution) refresh() {
	sol.OK = sol.sol.OK
	sol.Bindings = make(map[string]string)
	if !sol.OK {
		return
	}
	for name, tm := range sol.sol.Bindings() {
		sol.Bindings[name] = sol.sys.tab.Write(tm)
	}
}

// AnalyzeOption configures Analyze.
type AnalyzeOption func(*analyzeCfg)

type analyzeCfg struct {
	cfg   core.Config
	entry string
	// tracer is the user's Tracer (observe.go); AnalyzeContext adapts it
	// onto the internal interface, which needs the symbol table.
	tracer Tracer
	// cache is the incremental summary cache (cache.go); strategySet
	// distinguishes an explicit WithStrategy choice from the default, so
	// the cache can upgrade the default to Worklist but reject a
	// deliberate conflicting pick.
	cache       Store
	strategySet bool
	// specOff disables the specialized transfer streams (they default
	// on; see WithSpecializedTransfer).
	specOff bool
	// err records the first invalid option; Analyze surfaces it instead
	// of running with a silently clamped configuration.
	err error
}

func (c *analyzeCfg) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithDepth sets the term-depth restriction (default 4, as in the
// paper). Negative depths are rejected by Analyze with ErrBadOption.
func WithDepth(k int) AnalyzeOption {
	return func(c *analyzeCfg) {
		if k < 0 {
			c.fail(fmt.Errorf("%w: negative depth %d", ErrBadOption, k))
			return
		}
		c.cfg.Depth = k
	}
}

// Strategy selects the fixpoint algorithm for WithStrategy.
type Strategy int

const (
	// Naive is the paper's scheme: iterate the whole analysis until no
	// success pattern changes (the default).
	Naive Strategy = iota
	// Worklist re-explores only the dependents of changed entries.
	// Results are byte-identical to Naive.
	Worklist
)

// WithStrategy selects the fixpoint algorithm. Values other than Naive
// and Worklist are rejected by Analyze with ErrBadOption.
func WithStrategy(s Strategy) AnalyzeOption {
	return func(c *analyzeCfg) {
		switch s {
		case Naive:
			c.cfg.Strategy = core.StrategyNaive
		case Worklist:
			c.cfg.Strategy = core.StrategyWorklist
		default:
			c.fail(fmt.Errorf("%w: unknown strategy %d", ErrBadOption, s))
			return
		}
		c.strategySet = true
	}
}

// WithoutIndexing makes the abstract machine explore every clause
// regardless of indexing instructions.
func WithoutIndexing() AnalyzeOption {
	return func(c *analyzeCfg) { c.cfg.Indexing = false }
}

// WithMaxSteps bounds the number of abstract instructions the analysis
// may execute; exceeding it fails with ErrAnalysisBudget. Nonpositive
// budgets are rejected by Analyze with ErrBadOption.
func WithMaxSteps(n int64) AnalyzeOption {
	return func(c *analyzeCfg) {
		if n <= 0 {
			c.fail(fmt.Errorf("%w: nonpositive step budget %d", ErrBadOption, n))
			return
		}
		c.cfg.MaxSteps = n
	}
}

// WithEntry analyzes from an explicit calling pattern, e.g.
// "append(list(g), list(g), var)", instead of main/0.
func WithEntry(pattern string) AnalyzeOption {
	return func(c *analyzeCfg) { c.entry = pattern }
}

// WithSpecializedTransfer toggles the per-SCC specialized abstract
// transfer streams (on by default). When on, the analysis executes each
// component's clauses from a flattened instruction stream with fused
// superinstructions, pre-resolved intra-SCC calls and pre-interned call
// patterns; when off, it executes the plain stream — one word per
// abstract-WAM instruction — built per analysis. Results — summaries,
// Marshal bytes, step counts, opcode histograms, and the events a
// WithTracer tracer sees — are byte-identical either way, only the wall
// time differs. The specialization is built once per System and reused
// across analyses.
func WithSpecializedTransfer(on bool) AnalyzeOption {
	return func(c *analyzeCfg) { c.specOff = !on }
}

// Analysis holds a finished dataflow analysis.
type Analysis struct {
	sys *System
	res *core.Result
	an  *core.Analyzer
	// inc is set when the analysis ran through a SummaryCache
	// (see Incremental in cache.go).
	inc *inc.Result

	// The per-predicate accessors (Summary and its string views) share
	// the lookup structures indexOnce builds, so reading every predicate
	// costs O(P), not O(P²): fns and names list the predicates, as
	// functors and as "name/arity", in Predicates' order, groups holds
	// each one's table entries in table order, and byName resolves a
	// name to its index.
	indexOnce sync.Once
	fns       []term.Functor
	names     []string
	groups    [][]*core.Entry
	byName    map[string]int
	// anMu serializes the determinacy checks, which run on an's heap;
	// dets is the whole determinacy table, built once.
	anMu    sync.Mutex
	detOnce sync.Once
	dets    []core.DetEntry
	// stored and computed count the Summary calls answered from the
	// summaries kept with the store's records and those computed.
	stored, computed atomic.Int64
}

// AnalysisStats are run statistics (the paper's Table 1 columns).
type AnalysisStats struct {
	// Exec is the number of abstract WAM instructions executed.
	Exec int64
	// Iterations is the number of fixpoint passes.
	Iterations int
	// TableSize is the number of calling patterns in the extension
	// table.
	TableSize int
}

// Analyze runs the compiled dataflow analysis (the paper's abstract
// WAM). It is AnalyzeContext with a background context; see there for
// the errors it returns.
func (s *System) Analyze(opts ...AnalyzeOption) (*Analysis, error) {
	return s.AnalyzeContext(context.Background(), opts...)
}

// AnalyzeContext runs the compiled dataflow analysis under a context:
// cancellation or deadline expiry stops the fixpoint promptly, under
// either strategy, and fails with an error wrapping ErrCanceled and the
// context's cause.
//
// Other failures wrap ErrBadOption (an invalid option value, such as a
// negative depth), ErrParse (an unparsable WithEntry
// pattern) or ErrAnalysisBudget (the WithMaxSteps abstract-instruction
// budget was exhausted).
func (s *System) AnalyzeContext(ctx context.Context, opts ...AnalyzeOption) (*Analysis, error) {
	c := analyzeCfg{cfg: core.DefaultConfig()}
	for _, o := range opts {
		o(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.tracer != nil {
		c.cfg.Tracer = coreTracer{tab: s.tab, t: c.tracer}
	}
	if !c.specOff {
		c.cfg.Spec = s.specProgram()
	}
	if c.cache != nil && c.cache.engine() != nil {
		if err := c.validateCacheOptions(); err != nil {
			return nil, err
		}
		ir, err := c.cache.engine().AnalyzeCondensed(ctx, s.condensation(), c.cfg)
		if err != nil {
			return nil, wrapAnalysisErr(err)
		}
		return &Analysis{sys: s, res: ir.Result, an: core.New(s.mod), inc: ir}, nil
	}
	a := core.NewWith(s.mod, c.cfg)
	var res *core.Result
	var err error
	if c.entry == "" {
		res, err = a.AnalyzeAllContext(ctx)
	} else {
		var cp *domain.Pattern
		cp, err = domain.ParseAbs(s.tab, c.entry)
		if err != nil {
			return nil, fmt.Errorf("%w: entry pattern: %w", ErrParse, err)
		}
		res, err = a.AnalyzeContext(ctx, cp)
	}
	if err != nil {
		return nil, wrapAnalysisErr(err)
	}
	return &Analysis{sys: s, res: res, an: a}, nil
}

// wrapAnalysisErr maps internal analysis failures onto the package's
// typed errors, preserving the cause chain.
func wrapAnalysisErr(err error) error {
	switch {
	case errors.Is(err, core.ErrStepLimit):
		return fmt.Errorf("%w: %w", ErrAnalysisBudget, err)
	case errors.Is(err, core.ErrCanceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// System returns the system the analysis was computed for.
func (a *Analysis) System() *System { return a.sys }

// Report renders the extension table with modes and aliasing.
func (a *Analysis) Report() string { return a.res.Report() }

// Marshal serializes the analysis to a text summary loadable with
// LoadAnalysis (separate-compilation workflows).
func (a *Analysis) Marshal() string { return a.res.Marshal() }

// LoadAnalysis reads a summary produced by Analysis.Marshal for this
// system's programs.
func (s *System) LoadAnalysis(text string) (*Analysis, error) {
	res, err := core.Unmarshal(s.tab, text)
	if err != nil {
		return nil, err
	}
	return &Analysis{sys: s, res: res, an: core.New(s.mod)}, nil
}

// Determinacy reports, per calling pattern, whether at most one clause
// can match ("det pred(...)" / "nondet(N) pred(...)" lines).
func (a *Analysis) Determinacy() string {
	a.detOnce.Do(func() {
		a.anMu.Lock()
		defer a.anMu.Unlock()
		a.dets = a.an.Determinacy(a.res)
	})
	return core.DeterminacyReport(a.sys.tab, a.dets)
}

// det reports whether every calling pattern of one predicate, given by
// its entries, is determinate.
func (a *Analysis) det(ents []*core.Entry) bool {
	a.anMu.Lock()
	defer a.anMu.Unlock()
	for _, d := range a.an.DeterminacyOf(ents) {
		if !d.Det() {
			return false
		}
	}
	return true
}

// CallGraphDot renders the analysis-annotated call graph in Graphviz
// DOT.
func (a *Analysis) CallGraphDot() string {
	return core.CallGraphDot(a.sys.mod, a.res)
}

// Stats returns the run statistics.
func (a *Analysis) Stats() AnalysisStats {
	return AnalysisStats{
		Exec:       a.res.Steps,
		Iterations: a.res.Iterations,
		TableSize:  a.res.TableSize,
	}
}

// Predicates lists the predicates recorded in the analysis as
// "name/arity" strings, sorted by name and arity.
func (a *Analysis) Predicates() []string {
	a.index()
	return slices.Clone(a.names)
}

// index builds the per-predicate lookup structures once, rendering each
// predicate's name once.
func (a *Analysis) index() {
	a.indexOnce.Do(func() {
		a.fns, a.groups = a.res.Grouped()
		a.names = make([]string, len(a.fns))
		a.byName = make(map[string]int, len(a.fns))
		for i, fn := range a.fns {
			name := a.sys.tab.FuncString(fn)
			a.names[i] = name
			if _, dup := a.byName[name]; !dup {
				a.byName[name] = i
			}
		}
	})
}

// findPred resolves a "name/arity" string and returns the predicate's
// table entries.
func (a *Analysis) findPred(pred string) (term.Functor, []*core.Entry, bool) {
	a.index()
	i, ok := a.byName[pred]
	if !ok {
		return term.Functor{}, nil, false
	}
	return a.fns[i], a.groups[i], true
}

// CallingPatterns returns the calling patterns recorded for a predicate
// given as "name/arity".
func (a *Analysis) CallingPatterns(pred string) []string {
	_, ents, ok := a.findPred(pred)
	if !ok {
		return nil
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.CP.String(a.sys.tab))
	}
	sort.Strings(out)
	return out
}

// SuccessPattern returns the lubbed success pattern of a predicate, and
// whether any call of it can succeed. It is the convenience string form
// of Summary(pred).Success; use Summary for structured access.
func (a *Analysis) SuccessPattern(pred string) (string, bool) {
	s, ok := a.Summary(pred)
	if !ok || !s.Succeeds {
		return "", false
	}
	return s.Success, true
}

// Modes returns the derived mode declaration of a predicate. It is the
// convenience string form of Summary(pred).ModeString(); use Summary for
// per-argument Mode values.
func (a *Analysis) Modes(pred string) (string, bool) {
	s, ok := a.Summary(pred)
	if !ok || len(s.Args) == 0 {
		return "", false
	}
	return s.ModeString(), true
}

// AliasPairs returns the 1-based argument pairs that may share variables
// on success. It is the convenience form of Summary(pred).AliasPairs.
func (a *Analysis) AliasPairs(pred string) [][2]int {
	s, ok := a.Summary(pred)
	if !ok {
		return nil
	}
	return s.AliasPairs
}

// StripUnreachable returns a new System without the predicates the
// analysis proved unreachable from its entry point, and their
// name/arity strings. An analysis from a different System fails with an
// error wrapping ErrOptimize.
func (s *System) StripUnreachable(a *Analysis) (*System, []string, error) {
	if a == nil || a.sys == nil || a.sys.prog != s.prog {
		return nil, nil, fmt.Errorf("%w: analysis does not belong to this system", ErrOptimize)
	}
	stripped, removed := optimize.StripUnreachable(s.mod, a.res)
	names := make([]string, len(removed))
	for i, fn := range removed {
		names[i] = s.tab.FuncString(fn)
	}
	return &System{tab: s.tab, prog: s.prog, mod: stripped, exp: s.exp, src: s.src}, names, nil
}

// HostedResult is the outcome of the Prolog-hosted analysis.
type HostedResult struct {
	// Entries are "pattern -> success" strings of the mode table.
	Entries []string
	// Steps is the number of concrete WAM instructions the hosted
	// analyzer executed.
	Steps int64
	// Elapsed is the analysis wall time.
	Elapsed time.Duration
}

// HostedAnalyze runs the Prolog-hosted mode analyzer (the paper's
// comparison baseline) on this program.
func (s *System) HostedAnalyze() (*HostedResult, error) {
	r, err := plmeta.NewRunner(s.tab, s.prog)
	if err != nil {
		return nil, err
	}
	tbl, steps, dur, err := r.Run()
	if err != nil {
		return nil, err
	}
	return &HostedResult{Entries: r.TableEntries(tbl), Steps: steps, Elapsed: dur}, nil
}

// Version identifies the library.
const Version = "1.0.0"
