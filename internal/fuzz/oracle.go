package fuzz

import (
	"errors"
	"fmt"
	"strings"

	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/refint"
	"awam/internal/term"
)

// Options tunes the differential oracle.
type Options struct {
	// Depth is the widening depth k (the paper uses 4).
	Depth int
	// MaxSolutions bounds how many concrete answers are checked per
	// query.
	MaxSolutions int
	// ConcreteSteps bounds the reference interpreter; AbstractSteps
	// bounds each fixpoint run. Exhausting either skips the query
	// rather than failing it.
	ConcreteSteps int64
	AbstractSteps int64
	// CrossStrategies additionally runs the naive fixpoint and checks
	// both strategies' summaries for soundness against the concrete
	// answers.
	CrossStrategies bool
	// StrictCross escalates cross-strategy disagreement to a
	// violation: worklist and naive results must be byte-identical.
	// Since the widening was restructured into an upper closure
	// (merge = widen ∘ lub is an idempotent, commutative, associative
	// join on the widened subdomain — see domain/laws_test.go) this is
	// a theorem for arbitrary programs, so it defaults on everywhere,
	// including source-level fuzzing.
	StrictCross bool
	// MutateSummary, when non-nil, post-processes the analyzer's
	// success pattern before the soundness check. It exists for fault
	// injection: tests install a mutation that narrows the summary
	// (simulating a transfer-function bug) and assert the oracle
	// catches it. Returning nil simulates a bottom summary.
	MutateSummary func(tab *term.Tab, succ *domain.Pattern) *domain.Pattern
}

// DefaultOptions is the configuration used by the property suite.
func DefaultOptions() Options {
	return Options{
		Depth:           4,
		MaxSolutions:    8,
		ConcreteSteps:   400_000,
		AbstractSteps:   5_000_000,
		CrossStrategies: true,
		StrictCross:     true,
	}
}

// Check runs the differential oracle on one case. It returns the first
// violation found (nil if none), per-case statistics, and an error only
// for infrastructure failures (unparsable source, compile errors) —
// soundness failures are violations, not errors.
func Check(c Case, opt Options) (*Violation, Stats, error) {
	var st Stats
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, c.Source)
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: parse: %w", err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: compile: %w", err)
	}
	exp, err := compiler.ExpandedProgram(tab, prog)
	if err != nil {
		return nil, st, fmt.Errorf("fuzz: expand: %w", err)
	}

	viol := func(kind, query, detail string) *Violation {
		return &Violation{
			Kind:    kind,
			Seed:    c.Seed,
			Source:  c.Source,
			Query:   query,
			Detail:  detail,
			Clauses: len(prog.Clauses),
		}
	}

	for _, q := range c.Queries {
		goals, err := parser.ParseGoal(tab, q)
		if err != nil || len(goals) != 1 {
			st.Skipped++
			continue
		}
		goal := goals[0]
		fn, ok := term.Indicator(goal)
		if !ok || len(prog.Preds[fn]) == 0 {
			// Builtin or undefined goal: the analyzer has no summary
			// to check against.
			st.Skipped++
			continue
		}

		// Abstract the concrete call into the entry pattern.
		shares := make(map[*term.VarRef]int)
		argAbs := make([]*domain.Term, len(goal.Args))
		for i, a := range goal.Args {
			argAbs[i] = domain.AbstractConcrete(tab, a, shares)
		}
		cp := domain.WidenPattern(tab, domain.NewPattern(fn, argAbs), opt.Depth)

		run := func(strat core.Strategy) (*core.Result, error) {
			cfg := core.DefaultConfig()
			cfg.Depth = opt.Depth
			cfg.MaxSteps = opt.AbstractSteps
			cfg.Strategy = strat
			return core.NewWith(mod, cfg).Analyze(cp)
		}
		resWL, err := run(core.StrategyWorklist)
		if errors.Is(err, core.ErrStepLimit) {
			st.Skipped++
			continue
		}
		if err != nil {
			return nil, st, fmt.Errorf("fuzz: analyze %q: %w", q, err)
		}
		succ := resWL.SuccessFor(fn)

		var alts []altSummary
		if opt.CrossStrategies {
			var v *Violation
			alts, v, err = crossCheck(fn, resWL, run, viol, q, opt.StrictCross, &st)
			if err != nil {
				return nil, st, err
			}
			if v != nil {
				return v, st, nil
			}
		}

		if opt.MutateSummary != nil && succ != nil {
			succ = opt.MutateSummary(tab, succ)
		}

		// Run the query concretely; collect up to MaxSolutions
		// instantiated argument vectors.
		in := refint.New(tab, exp)
		in.MaxSteps = opt.ConcreteSteps
		var sols [][]*term.Term
		_, cerr := in.Solve([]*term.Term{goal}, func() bool {
			inst := make([]*term.Term, len(goal.Args))
			for i, a := range goal.Args {
				inst[i] = in.ReadBinding(a)
			}
			sols = append(sols, inst)
			return len(sols) < opt.MaxSolutions
		})
		if cerr != nil {
			// Budget or runtime error: whatever solutions were observed
			// before the error are still genuine and checked below.
			st.Skipped++
		} else {
			st.Queries++
		}

		// refint.ReadBinding truncates terms past a depth guard to a
		// sentinel atom; a truncated answer is not a faithful witness,
		// so drop those rather than risk a false violation.
		deep := tab.Intern("<deep>")
		kept := sols[:0]
		for _, sol := range sols {
			ok := true
			for _, tm := range sol {
				if containsAtom(tm, deep) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, sol)
			}
		}
		sols = kept
		st.Solutions += len(sols)

		// Every strategy's summary must cover every observed answer.
		checks := append([]altSummary{{"worklist", succ}}, alts...)
		for _, ch := range checks {
			if len(sols) > 0 && ch.succ == nil {
				return viol("bottom-success", q, fmt.Sprintf(
					"%s analysis claims %s cannot succeed but %d concrete solutions exist",
					ch.label, cp.String(tab), len(sols))), st, nil
			}
			for si, sol := range sols {
				for i, tm := range sol {
					if !domain.Member(tab, tm, ch.succ.Args[i]) {
						return viol("soundness", q, fmt.Sprintf(
							"%s: solution %d argument %d: concrete value %s escapes abstract %s (summary %s)",
							ch.label, si, i+1, tab.Write(tm), ch.succ.Args[i].String(tab), ch.succ.String(tab))), st, nil
					}
				}
			}
		}
	}
	return nil, st, nil
}

// altSummary is a non-worklist strategy's success summary for the
// query predicate, carried into the soundness check.
type altSummary struct {
	label string
	succ  *domain.Pattern
}

// crossCheck runs the naive fixpoint on the same entry pattern and
// returns its summary for the soundness check. Under strict mode it
// enforces the schedule-confluence contract: the worklist and naive
// tables must be byte-identical. Outside strict mode a byte-level
// disagreement only increments Stats.Diverged (each strategy's summary
// is still individually checked for soundness); that mode survives as
// an escape hatch for fault injection and for bisecting a confluence
// regression.
func crossCheck(fn term.Functor, resWL *core.Result, run func(core.Strategy) (*core.Result, error),
	viol func(kind, query, detail string) *Violation, q string,
	strict bool, st *Stats) ([]altSummary, *Violation, error) {
	resNaive, err := run(core.StrategyNaive)
	if errors.Is(err, core.ErrStepLimit) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("fuzz: naive analyze %q: %w", q, err)
	}
	if resWL.Marshal() != resNaive.Marshal() {
		if strict {
			pred, pair := FirstDivergence(resWL, resNaive)
			v := viol("strategy-divergence", q, fmt.Sprintf(
				"worklist and naive results are not byte-identical; first divergence at %s: %s vs %s",
				pred, pair[0], pair[1]))
			v.DivergedPred = pred
			v.DivergedPair = pair[:]
			return nil, v, nil
		}
		st.Diverged++
	}
	return []altSummary{{"naive", resNaive.SuccessFor(fn)}}, nil, nil
}

// FirstDivergence locates the first table entry on which two analysis
// results disagree, keyed by calling pattern. It returns the calling
// pattern and the two summaries ("missing" when one table lacks the
// entry, "bottom" for a nil summary). Entries are compared in a's
// presentation order, then b is scanned for entries absent from a.
func FirstDivergence(a, b *core.Result) (string, [2]string) {
	sumStr := func(r *core.Result, e *core.Entry) string {
		if e == nil {
			return "missing"
		}
		if e.Succ == nil {
			return "bottom"
		}
		return e.Succ.String(r.Tab)
	}
	bByKey := make(map[string]*core.Entry, len(b.Entries))
	for _, e := range b.Entries {
		bByKey[e.CP.Key()] = e
	}
	seen := make(map[string]bool, len(a.Entries))
	for _, e := range a.Entries {
		key := e.CP.Key()
		seen[key] = true
		be := bByKey[key]
		as, bs := sumStr(a, e), sumStr(b, be)
		if as != bs {
			return e.CP.String(a.Tab), [2]string{as, bs}
		}
	}
	for _, e := range b.Entries {
		if !seen[e.CP.Key()] {
			return e.CP.String(b.Tab), [2]string{"missing", sumStr(b, e)}
		}
	}
	// Same keyed rows: the byte difference is in presentation order.
	al, bl := strings.Split(a.Marshal(), "\n"), strings.Split(b.Marshal(), "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return "(presentation order)", [2]string{x, y}
		}
	}
	return "", [2]string{"", ""}
}

// CheckMetamorphic applies the metamorphic oracle to a case: reversing
// clause order (within and across predicates) and uniformly renaming
// predicates must both leave every query's success summary unchanged —
// the abstract semantics is a property of the clause set, not its
// presentation.
func CheckMetamorphic(c Case, opt Options) (*Violation, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, c.Source)
	if err != nil {
		return nil, fmt.Errorf("fuzz: parse: %w", err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		return nil, fmt.Errorf("fuzz: compile: %w", err)
	}

	// Build the two transformed programs once, in the same atom table
	// so data functors keep their identities across variants.
	reordered := reorderSource(tab, prog)
	progR, err := parser.ParseProgram(tab, reordered)
	if err != nil {
		return nil, fmt.Errorf("fuzz: reparse reordered: %w", err)
	}
	modR, err := compiler.Compile(tab, progR)
	if err != nil {
		return nil, fmt.Errorf("fuzz: recompile reordered: %w", err)
	}
	renamed, ren := renameSource(tab, prog)
	progN, err := parser.ParseProgram(tab, renamed)
	if err != nil {
		return nil, fmt.Errorf("fuzz: reparse renamed: %w", err)
	}
	modN, err := compiler.Compile(tab, progN)
	if err != nil {
		return nil, fmt.Errorf("fuzz: recompile renamed: %w", err)
	}

	viol := func(kind, query, detail string) *Violation {
		return &Violation{
			Kind:    kind,
			Seed:    c.Seed,
			Source:  c.Source,
			Query:   query,
			Detail:  detail,
			Clauses: len(prog.Clauses),
		}
	}
	cfg := core.DefaultConfig()
	cfg.Depth = opt.Depth
	cfg.MaxSteps = opt.AbstractSteps
	cfg.Strategy = core.StrategyWorklist

	for _, q := range c.Queries {
		goals, err := parser.ParseGoal(tab, q)
		if err != nil || len(goals) != 1 {
			continue
		}
		goal := goals[0]
		fn, ok := term.Indicator(goal)
		if !ok || len(prog.Preds[fn]) == 0 {
			continue
		}
		shares := make(map[*term.VarRef]int)
		argAbs := make([]*domain.Term, len(goal.Args))
		for i, a := range goal.Args {
			argAbs[i] = domain.AbstractConcrete(tab, a, shares)
		}
		cp := domain.WidenPattern(tab, domain.NewPattern(fn, argAbs), opt.Depth)

		resO, err := core.NewWith(mod, cfg).Analyze(cp)
		if errors.Is(err, core.ErrStepLimit) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("fuzz: analyze %q: %w", q, err)
		}
		succO := resO.SuccessFor(fn)

		resR, err := core.NewWith(modR, cfg).Analyze(cp)
		if err != nil && !errors.Is(err, core.ErrStepLimit) {
			return nil, fmt.Errorf("fuzz: analyze reordered %q: %w", q, err)
		}
		if err == nil {
			succR := resR.SuccessFor(fn)
			if !patternsEqual(succO, succR) {
				return viol("metamorphic-reorder", q, fmt.Sprintf(
					"summary changed under clause reordering: %s vs %s",
					patStr(tab, succO), patStr(tab, succR))), nil
			}
		}

		rfn := ren[fn]
		cpN := domain.NewPattern(rfn, cp.Args)
		resN, err := core.NewWith(modN, cfg).Analyze(cpN)
		if err != nil && !errors.Is(err, core.ErrStepLimit) {
			return nil, fmt.Errorf("fuzz: analyze renamed %q: %w", q, err)
		}
		if err == nil {
			succN := resN.SuccessFor(rfn)
			// Compare modulo the predicate name: rebuild the renamed
			// summary over the original functor.
			var succNBack *domain.Pattern
			if succN != nil {
				succNBack = domain.NewPattern(fn, succN.Args)
			}
			if !patternsEqual(succO, succNBack) {
				return viol("metamorphic-rename", q, fmt.Sprintf(
					"summary changed under predicate renaming: %s vs %s",
					patStr(tab, succO), patStr(tab, succNBack))), nil
			}
		}
	}
	return nil, nil
}

// containsAtom reports whether tm contains the given atom anywhere.
func containsAtom(tm *term.Term, a term.Atom) bool {
	switch tm.Kind {
	case term.KAtom:
		return tm.Fn.Name == a
	case term.KStruct:
		for _, arg := range tm.Args {
			if containsAtom(arg, a) {
				return true
			}
		}
	}
	return false
}

func patternsEqual(p, q *domain.Pattern) bool {
	if p == nil || q == nil {
		return p == nil && q == nil
	}
	return p.Equal(q)
}

func patStr(tab *term.Tab, p *domain.Pattern) string {
	if p == nil {
		return "⊥"
	}
	return p.String(tab)
}

// reorderSource renders the program with predicate groups in reverse
// definition order and the clauses of each predicate reversed.
func reorderSource(tab *term.Tab, prog *term.Program) string {
	var b strings.Builder
	for i := len(prog.Order) - 1; i >= 0; i-- {
		cls := prog.ClausesOf(prog.Order[i])
		for j := len(cls) - 1; j >= 0; j-- {
			b.WriteString(tab.WriteClause(cls[j]))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// renameSource renders the program with every defined predicate
// renamed to "rn_<name>", leaving data functors untouched (only call
// positions — clause heads and body goals, including goals nested
// under the control constructs — are rewritten).
func renameSource(tab *term.Tab, prog *term.Program) (string, map[term.Functor]term.Functor) {
	ren := make(map[term.Functor]term.Functor, len(prog.Order))
	for _, fn := range prog.Order {
		ren[fn] = tab.Func("rn_"+tab.Name(fn.Name), fn.Arity)
	}
	semi := tab.Intern(";")
	arrow := tab.Intern("->")
	naf := tab.Intern("\\+")

	var renameGoal func(tm *term.Term) *term.Term
	renameGoal = func(tm *term.Term) *term.Term {
		switch tm.Kind {
		case term.KAtom:
			if nfn, ok := ren[tm.Fn]; ok {
				return &term.Term{Kind: term.KAtom, Fn: nfn}
			}
		case term.KStruct:
			if (tm.Fn.Name == semi || tm.Fn.Name == arrow || tm.Fn.Name == tab.Comma) && tm.Fn.Arity == 2 {
				return &term.Term{Kind: term.KStruct, Fn: tm.Fn,
					Args: []*term.Term{renameGoal(tm.Args[0]), renameGoal(tm.Args[1])}}
			}
			if tm.Fn.Name == naf && tm.Fn.Arity == 1 {
				return &term.Term{Kind: term.KStruct, Fn: tm.Fn,
					Args: []*term.Term{renameGoal(tm.Args[0])}}
			}
			if nfn, ok := ren[tm.Fn]; ok {
				return &term.Term{Kind: term.KStruct, Fn: nfn, Args: tm.Args}
			}
		}
		return tm
	}

	var b strings.Builder
	for _, cl := range prog.Clauses {
		nc := term.Clause{Head: renameGoal(cl.Head), Body: make([]*term.Term, len(cl.Body))}
		for i, g := range cl.Body {
			nc.Body[i] = renameGoal(g)
		}
		b.WriteString(tab.WriteClause(nc))
		b.WriteString("\n")
	}
	return b.String(), ren
}
