package awam

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
)

// controlProg uses every control construct the compiler expands into
// auxiliary predicates, in more than one predicate, so the program-wide
// auxiliary numbering matters.
const controlProg = `
main :- classify([a, 1, f(x), b], Out), report(Out).
classify([], []).
classify([X|Xs], [K|Ks]) :- ( atom(X) -> K = atom ; integer(X) -> K = int ; K = other ), classify(Xs, Ks).
report([]).
report([K|Ks]) :- \+ K = none, report(Ks).
pick(X, Y) :- ( X = a ; X = b ), Y = X.
same(X, X).
`

// systemView renders what a System is judged by: its listing, its
// Section 5 transformation, its predicates, a worklist analysis, its
// own condensation with the plans it fingerprints under both salts,
// its specialized program, the predicates map of an analysis through
// st (as /v1/analyze builds it), and the backward demands of its first
// predicate.
func systemView(t *testing.T, sys *System, st Store) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(sys.Disasm())
	b.WriteString(sys.Transform())
	fmt.Fprintln(&b, sys.Predicates())
	a, err := sys.Analyze(WithStrategy(Worklist))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(a.Marshal())
	cond := sys.condensation()
	b.WriteString(condView(sys.tab, cond))
	fmt.Fprintln(&b, cond.ForwardPlan(core.Config{}).Fingerprints)
	fmt.Fprintln(&b, cond.ForwardPlan(core.Config{Spec: sys.specProgram()}).Fingerprints)
	b.WriteString(specialize.Disasm(sys.tab, sys.specProgram()))
	ca, err := sys.Analyze(WithSummaryCache(st))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(predicatesJSON(ca))
	if preds := sys.Predicates(); len(preds) > 0 {
		bw, err := sys.AnalyzeBackward(WithGoal(preds[0]))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := json.Marshal(bw.Demands())
		b.Write(d)
	}
	return b.String()
}

// condView renders a condensation: each component's members, whether
// it is undefined, and its callees; then whether PredSCC indexes
// exactly the members.
func condView(tab *term.Tab, c *inc.Condensation) string {
	var b strings.Builder
	members := 0
	for i, scc := range c.SCCs {
		fmt.Fprintf(&b, "scc %d undefined=%t callees=%v:", i, scc.Undefined, scc.Callees)
		for _, fn := range scc.Members {
			fmt.Fprintf(&b, " %s", tab.FuncString(fn))
			if c.PredSCC[fn] != i {
				fmt.Fprintf(&b, "(PredSCC %d)", c.PredSCC[fn])
			}
		}
		members += len(scc.Members)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "PredSCC holds %d of %d members\n", len(c.PredSCC), members)
	return b.String()
}

// predicatesJSON renders every predicate's Summary as the /v1/analyze
// handler collects them.
func predicatesJSON(a *Analysis) string {
	m := make(map[string]Summary)
	for _, p := range a.Predicates() {
		if s, ok := a.Summary(p); ok {
			m[p] = s
		}
	}
	data, _ := json.Marshal(m)
	return string(data) + "\n"
}

// errView renders a load error: which typed errors it wraps, and its
// text (with any line:col position).
func errView(err error) string {
	return fmt.Sprintf("parse=%t compile=%t register=%t %s",
		errors.Is(err, ErrParse), errors.Is(err, ErrCompile), errors.Is(err, ErrRegisterLimit), err)
}

// clauseSpans splits src at its clause boundaries: span i is the text
// of clause i with the layout before it.
func clauseSpans(t *testing.T, src string) []string {
	chunks, err := parser.ReadChunks(term.NewTab(), src, 0, nil)
	if err != nil {
		t.Fatalf("edit base does not parse: %v", err)
	}
	var out []string
	start := 0
	for _, ch := range chunks {
		out = append(out, src[start:ch.End])
		start = ch.End
	}
	if start < len(src) {
		out = append(out, src[start:])
	}
	return out
}

// editor draws random source edits at clause granularity.
type editor struct {
	r *rand.Rand
	n int // counter for fresh names
	// broken holds the text before a parse error was introduced, so the
	// next edit fixes it.
	broken string
}

// next returns an edit of src and its name.
func (e *editor) next(t *testing.T, src string) (string, string) {
	if e.broken != "" {
		fixed := e.broken
		e.broken = ""
		return fixed, "fix"
	}
	spans := clauseSpans(t, src)
	at := e.r.Intn(len(spans) + 1)
	insert := func(s string) string {
		return strings.Join(spans[:at], "") + s + strings.Join(spans[at:], "")
	}
	e.n++
	switch k := e.r.Intn(11); {
	case k == 0 && len(spans) > 1: // delete a clause
		i := e.r.Intn(len(spans))
		return strings.Join(spans[:i], "") + strings.Join(spans[i+1:], ""), "delete"
	case k == 1: // duplicate a clause elsewhere (adds a clause to its predicate)
		return insert(spans[e.r.Intn(len(spans))]), "add clause"
	case k == 2 && len(spans) > 1: // move a clause
		i := e.r.Intn(len(spans))
		rest := append(append([]string(nil), spans[:i]...), spans[i+1:]...)
		j := e.r.Intn(len(rest) + 1)
		return strings.Join(rest[:j], "") + spans[i] + strings.Join(rest[j:], ""), "move"
	case k == 3: // change a clause: one more goal
		i := e.r.Intn(len(spans))
		c := spans[i]
		dot := strings.LastIndexByte(c, '.')
		if dot < 0 {
			return insert(fmt.Sprintf("\nextra%d(a).", e.n)), "add predicate"
		}
		goal := fmt.Sprintf(" atom(chg%d)", e.n)
		if strings.Contains(c[:dot], ":-") {
			goal = "," + goal
		} else {
			goal = " :-" + goal
		}
		spans[i] = c[:dot] + goal + c[dot:]
		return strings.Join(spans, ""), "change"
	case k == 4: // add a predicate and a call to it
		return insert(fmt.Sprintf("\nnewp%d(X) :- atom(X), newq%d(X).\nnewq%d(_).", e.n, e.n, e.n)), "add predicate"
	case k == 5: // add a control construct
		return insert(fmt.Sprintf("\nctl%d(X, Y) :- ( X = a -> Y = b ; \\+ X = c, Y = X ).", e.n)), "add control"
	case k == 6: // introduce a parse or compile error, fixed by the next edit
		e.broken = src
		bad := []string{
			"\nbad( :- .", "\n'unclosed(x).", "\n/* open comment\nq.", "\np(X) :- X = 0'",
			"\natom(redefined).", "\n" + bench.DeepProgram(70_000).Source,
		}[e.r.Intn(6)]
		return insert(bad), "break"
	case k == 7: // a byte-level edit inside a clause
		i := e.r.Intn(len(src) + 1)
		return src[:i] + " " + src[i:], "space"
	case k == 8: // a callee calls back into its caller's component
		if back, ok := e.backCall(t, src); ok {
			return insert(back), "back-call"
		}
		return insert(fmt.Sprintf("\nfact%d(atom%d).", e.n%3, e.n)), "add fact"
	case k == 9: // delete the clause holding a predicate's only call
		if i, ok := e.onlyCall(t, src); ok {
			return strings.Join(spans[:i], "") + strings.Join(spans[i+1:], ""), "orphan"
		}
		return insert(fmt.Sprintf("\nfact%d(atom%d).", e.n%3, e.n)), "add fact"
	default: // a fact naming a fresh atom
		return insert(fmt.Sprintf("\nfact%d(atom%d).", e.n%3, e.n)), "add fact"
	}
}

// plainName matches the predicate names the editor writes unquoted.
var plainName = regexp.MustCompile(`^[a-z][a-zA-Z0-9_]*$`)

// calls lists the goals a clause body calls, through conjunction,
// disjunction, if-then-else and negation, with the body goal each sits
// in.
func calls(tab *term.Tab, body []*term.Term) []term.Functor {
	var out []term.Functor
	var walk func(g *term.Term)
	walk = func(g *term.Term) {
		switch {
		case g.Kind == term.KAtom:
			out = append(out, g.Fn)
		case g.Kind != term.KStruct:
		case g.Fn.Arity == 2 && (tab.Name(g.Fn.Name) == "," || tab.Name(g.Fn.Name) == ";" || tab.Name(g.Fn.Name) == "->"),
			g.Fn.Arity == 1 && tab.Name(g.Fn.Name) == "\\+":
			for _, a := range g.Args {
				walk(a)
			}
		default:
			out = append(out, g.Fn)
		}
	}
	for _, g := range body {
		walk(g)
	}
	return out
}

// parsed reads src's chunks, which line up with clauseSpans(src), and
// the predicates the clauses define.
func parsed(t *testing.T, src string) (*term.Tab, []parser.Chunk, map[term.Functor]bool) {
	tab := term.NewTab()
	chunks, err := parser.ReadChunks(tab, src, 0, nil)
	if err != nil {
		t.Fatalf("edit base does not parse: %v", err)
	}
	defined := make(map[term.Functor]bool)
	for _, ch := range chunks {
		if !ch.Directive {
			defined[ch.Clause.Head.Fn] = true
		}
	}
	return tab, chunks, defined
}

// backCall picks a clause of some p that calls another defined
// predicate q, and returns a new clause of q that calls p, so that p's
// and q's components merge.
func (e *editor) backCall(t *testing.T, src string) (string, bool) {
	tab, chunks, defined := parsed(t, src)
	type pair struct{ p, q term.Functor }
	var pairs []pair
	for _, ch := range chunks {
		p := ch.Clause.Head.Fn
		if ch.Directive || !plainName.MatchString(tab.Name(p.Name)) {
			continue
		}
		for _, q := range calls(tab, ch.Clause.Body) {
			if q != p && defined[q] && plainName.MatchString(tab.Name(q.Name)) {
				pairs = append(pairs, pair{p, q})
			}
		}
	}
	if len(pairs) == 0 {
		return "", false
	}
	pq := pairs[e.r.Intn(len(pairs))]
	goal := func(f term.Functor) string {
		if f.Arity == 0 {
			return tab.Name(f.Name)
		}
		return tab.Name(f.Name) + "(" + strings.TrimSuffix(strings.Repeat("_, ", f.Arity), ", ") + ")"
	}
	return fmt.Sprintf("\n%s :- %s.", goal(pq.q), goal(pq.p)), true
}

// onlyCall returns the index of a clause that holds the only call of
// some defined predicate other than its own, so that deleting it
// leaves that predicate defined but never called.
func (e *editor) onlyCall(t *testing.T, src string) (int, bool) {
	tab, chunks, defined := parsed(t, src)
	callers := make(map[term.Functor][]int)
	for i, ch := range chunks {
		if ch.Directive {
			continue
		}
		for _, q := range calls(tab, ch.Clause.Body) {
			if defined[q] && q != ch.Clause.Head.Fn {
				callers[q] = append(callers[q], i)
			}
		}
	}
	var only []int
	for _, at := range callers {
		if len(at) == 1 {
			only = append(only, at[0])
		}
	}
	if len(only) == 0 {
		return 0, false
	}
	sort.Ints(only)
	return only[e.r.Intn(len(only))], true
}

// TestDeriveMatchesLoad runs random edit sequences through Derive, each
// step from the last System that loaded, and checks every step against
// a fresh Load: the same listing, transformation, analysis,
// condensation, plan fingerprints, specialized program, summaries and
// demands, or the same typed error at the same position. The derived
// Systems build their condensation, fingerprints and specialized
// program from their base's, and analyze through one store, so their
// summaries are reused where the edit left them alone.
func TestDeriveMatchesLoad(t *testing.T) {
	type prog struct {
		name, src string
		steps     int
	}
	var progs []prog
	for _, p := range bench.Programs {
		progs = append(progs, prog{p.Name, p.Source, 6})
	}
	progs = append(progs,
		prog{"control", controlProg, 24},
		prog{"wide_32", bench.WideProgramSeeded(32, 1).Source, 12},
		prog{"wide_128", bench.WideProgramSeeded(128, 2).Source, 4},
		prog{"wide_512", bench.WideProgramSeeded(512, 3).Source, 2},
	)
	for i, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			e := &editor{r: rand.New(rand.NewSource(int64(i + 1)))}
			base, err := Load(p.src)
			if err != nil {
				t.Fatal(err)
			}
			st := newStore(t)
			src := p.src
			kept := 0 // derived Systems whose condensation was derived too
			for step := 0; step < p.steps; step++ {
				next, what := e.next(t, src)
				fresh, ferr := Load(next)
				derived, derr := base.Derive(next)
				switch {
				case ferr != nil || derr != nil:
					if ferr == nil || derr == nil || errView(ferr) != errView(derr) {
						t.Fatalf("step %d (%s): Load error %v, Derive error %v", step, what, ferr, derr)
					}
				default:
					if derived.tab != base.tab {
						t.Fatalf("step %d (%s): derived System has a table of its own", step, what)
					}
					if got, want := systemView(t, derived, st), systemView(t, fresh, newStore(t)); got != want {
						t.Fatalf("step %d (%s): derived System differs from Load:\n%s", step, what, firstDiff(got, want))
					}
					if derived.condensation().Base != nil {
						kept++
					}
					base = derived
				}
				if ferr == nil || what == "break" {
					src = next // an unplanned parse error is not edited further
				}
			}
			if kept == 0 {
				t.Error("no derived System derived its condensation from its base's")
			}
		})
	}
}

func newStore(t *testing.T) Store {
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range w {
		if i >= len(g) || g[i] != w[i] {
			gl := "<missing>"
			if i < len(g) {
				gl = g[i]
			}
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, gl, w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestDerivationDropped: a derived System keeps its base's condensation
// only until it has built its own, and the base's specialized program
// only until it has built its own; a base without a specialized program
// leaves nothing to keep after the condensation.
func TestDerivationDropped(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	for _, specialized := range []bool{false, true} {
		base, err := Load(src)
		if err != nil {
			t.Fatal(err)
		}
		base.condensation()
		if specialized {
			base.specProgram()
		}
		d, err := base.Derive(src + "p3_use(mutant_1).\n")
		if err != nil {
			t.Fatal(err)
		}
		if d.condensation().Base == nil {
			t.Fatalf("specialized base %t: condensation not derived", specialized)
		}
		from := d.from.Load()
		if specialized != (from != nil) || from != nil && (from.cond != nil || from.copied != nil || from.spec == nil) {
			t.Fatalf("specialized base %t: after the condensation the derivation is %+v", specialized, from)
		}
		d.specProgram()
		if d.from.Load() != nil {
			t.Fatalf("specialized base %t: derivation kept after the specialized program", specialized)
		}
	}
}

// TestDeriveReuses: an appended clause is read alone, every other
// clause staying the base's object; after a clause inserted mid-source
// the base's clauses follow again.
func TestDeriveReuses(t *testing.T) {
	src := bench.WideProgramSeeded(32, 1).Source
	base, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := base.Derive(src + "p3_use(mutant_1).\n")
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := range base.prog.Clauses {
		if d.prog.Clauses[i].Head == base.prog.Clauses[i].Head {
			shared++
		}
	}
	if shared != len(base.prog.Clauses) {
		t.Errorf("%d of %d clause objects shared, want all", shared, len(base.prog.Clauses))
	}
	if got, want := len(d.prog.Clauses), len(base.prog.Clauses)+1; got != want {
		t.Fatalf("%d clauses, want %d", got, want)
	}
	// A mid-source edit keeps the clauses after it too.
	mid := strings.Index(src, "p9_")
	d2, err := base.Derive(src[:mid] + "extra(x).\n" + src[mid:])
	if err != nil {
		t.Fatal(err)
	}
	last := len(base.prog.Clauses) - 1
	if d2.prog.Clauses[last+1].Head != base.prog.Clauses[last].Head {
		t.Error("clauses after a mid-source edit were read again")
	}
}

// FuzzDerive: a base program and a byte edit (offset, deleted length,
// inserted bytes). Deriving the edited source from the base must give
// what Load gives: the same listing, transformation, predicates,
// condensation, fingerprints, specialized program and analysis, or the
// same typed error at the same position.
func FuzzDerive(f *testing.F) {
	bases := []string{controlProg, bench.WideProgramSeeded(4, 1).Source}
	for _, p := range bench.Programs {
		bases = append(bases, p.Source)
	}
	for i := range bases {
		f.Add(uint8(i), uint16(10), uint8(0), "/*")
		f.Add(uint8(i), uint16(30), uint8(0), "'")
		f.Add(uint8(i), uint16(40), uint8(2), "0'.")
		f.Add(uint8(i), uint16(0), uint8(0), "p :- (a ; b).\n")
		f.Add(uint8(i), uint16(200), uint8(5), "")
	}
	f.Add(uint8(0), uint16(5), uint8(1), "x. y(0'.). ")
	f.Add(uint8(1), uint16(12), uint8(3), "'it''s'")
	f.Fuzz(func(t *testing.T, which uint8, off uint16, del uint8, ins string) {
		src := bases[int(which)%len(bases)]
		at := int(off) % (len(src) + 1)
		end := min(at+int(del), len(src))
		edited := src[:at] + ins + src[end:]
		base, err := Load(src)
		if err != nil {
			t.Fatal(err)
		}
		// The base's condensation, fingerprints and specialized program,
		// which the derived System builds its own from.
		base.condensation().ForwardPlan(core.Config{Spec: base.specProgram()})
		fresh, ferr := Load(edited)
		derived, derr := base.Derive(edited)
		if ferr != nil || derr != nil {
			if ferr == nil || derr == nil || errView(ferr) != errView(derr) {
				t.Fatalf("Load error %v, Derive error %v", ferr, derr)
			}
			return
		}
		if got, want := fuzzView(t, derived), fuzzView(t, fresh); got != want {
			t.Fatalf("derived System differs from Load:\n%s", firstDiff(got, want))
		}
	})
}

// fuzzView is systemView without the parts an edited program may make
// expensive or fail: a bounded analysis, no store, no backward query.
func fuzzView(t *testing.T, sys *System) string {
	var b strings.Builder
	b.WriteString(sys.Disasm())
	b.WriteString(sys.Transform())
	fmt.Fprintln(&b, sys.Predicates())
	cond := sys.condensation()
	b.WriteString(condView(sys.tab, cond))
	fmt.Fprintln(&b, cond.ForwardPlan(core.Config{Spec: sys.specProgram()}).Fingerprints)
	b.WriteString(specialize.Disasm(sys.tab, sys.specProgram()))
	a, err := sys.Analyze(WithStrategy(Worklist), WithMaxSteps(200_000))
	if err != nil {
		fmt.Fprintln(&b, errors.Is(err, ErrAnalysisBudget), err)
	} else {
		b.WriteString(a.Marshal())
	}
	return b.String()
}

// TestDeriveConcurrent: goroutines derive edits from one analyzed base
// and analyze them through one store while another goroutine starts a
// second lineage; every analysis equals a fresh Load's.
func TestDeriveConcurrent(t *testing.T) {
	src := bench.WideProgramSeeded(8, 1).Source
	base, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(i int) string { return src + fmt.Sprintf("p%d_use(mutant_%d).\n", i%8, i) }
	want := make([]string, 8)
	for i := range want {
		sys, err := Load(edit(i))
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Analyze(WithStrategy(Worklist))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a.Marshal()
	}
	// The base's condensation, fingerprint memo and specialized program
	// exist, so the derived Systems build theirs from them concurrently.
	if _, err := base.Analyze(WithSummaryCache(st)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(want); i += 4 {
				sys, err := base.Derive(edit(i))
				if err != nil {
					t.Error(err)
					return
				}
				a, err := sys.Analyze(WithSummaryCache(st))
				if err != nil {
					t.Error(err)
					return
				}
				if a.Marshal() != want[i] {
					t.Errorf("edit %d: derived analysis differs from Load's", i)
				}
				_ = predicatesJSON(a) // stores and reuses summaries concurrently
				_ = sys.Disasm()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		other, err := Load(controlProg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			next, err := other.Derive(controlProg + fmt.Sprintf("q%d.\n", i))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := next.Analyze(WithSummaryCache(st)); err != nil {
				t.Error(err)
				return
			}
			other = next
		}
	}()
	wg.Wait()
}
