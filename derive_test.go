package awam

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/inc"
	"awam/internal/parser"
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
// Section 5 transformation, its predicates, a worklist analysis, the
// forward plan's fingerprints under both salts, and the backward
// demands of its first predicate.
func systemView(t *testing.T, sys *System) string {
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
	fmt.Fprintln(&b, inc.Condense(sys.mod, core.Config{}).Fingerprints)
	fmt.Fprintln(&b, inc.Condense(sys.mod, core.Config{Spec: sys.specProgram()}).Fingerprints)
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
	switch k := e.r.Intn(9); {
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
	default: // a fact naming a fresh atom
		return insert(fmt.Sprintf("\nfact%d(atom%d).", e.n%3, e.n)), "add fact"
	}
}

// TestDeriveMatchesLoad runs random edit sequences through Derive, each
// step from the last System that loaded, and checks every step against
// a fresh Load: the same listing, transformation, analysis, plan
// fingerprints and demands, or the same typed error at the same
// position.
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
			src := p.src
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
					if got, want := systemView(t, derived), systemView(t, fresh); got != want {
						t.Fatalf("step %d (%s): derived System differs from Load:\n%s", step, what, firstDiff(got, want))
					}
					base = derived
				}
				if ferr == nil || what == "break" {
					src = next // an unplanned parse error is not edited further
				}
			}
		})
	}
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
// what Load gives: the same listing, transformation, predicates and
// analysis, or the same typed error at the same position.
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
// expensive or fail: a bounded analysis, no backward query.
func fuzzView(t *testing.T, sys *System) string {
	var b strings.Builder
	b.WriteString(sys.Disasm())
	b.WriteString(sys.Transform())
	fmt.Fprintln(&b, sys.Predicates())
	a, err := sys.Analyze(WithStrategy(Worklist), WithMaxSteps(200_000))
	if err != nil {
		fmt.Fprintln(&b, errors.Is(err, ErrAnalysisBudget), err)
	} else {
		b.WriteString(a.Marshal())
	}
	return b.String()
}

// TestDeriveConcurrent: goroutines derive edits from one base and
// analyze them through one store while another goroutine starts a
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
