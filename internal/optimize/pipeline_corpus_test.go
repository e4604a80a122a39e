package optimize

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/machine"
	"awam/internal/parser"
	"awam/internal/refint"
	"awam/internal/term"
	"awam/internal/wam"
)

const corpusDir = "../fuzz/testdata/fuzz/FuzzSoundnessSource"

type corpusCase struct {
	name   string
	source string
	query  string
}

// loadCorpus reads the committed go-fuzz seed corpus: each file is the
// "go test fuzz v1" header followed by a quoted source and query.
func loadCorpus(t *testing.T) []corpusCase {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("fuzz corpus missing: %v", err)
	}
	var cases []corpusCase
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			vals = append(vals, s)
		}
		if len(vals) != 2 {
			t.Fatalf("%s: %d string literals, want source and query", e.Name(), len(vals))
		}
		cases = append(cases, corpusCase{name: e.Name(), source: vals[0], query: vals[1]})
	}
	if len(cases) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	return cases
}

// loadCase compiles a corpus entry and analyzes it seeded from the
// query's own abstract call pattern (the differential-fuzz idiom), so
// the analysis contract covers exactly the goal the tests run. Returns
// false when the entry is out of scope (builtin/undefined goal, budget).
func loadCase(t *testing.T, c corpusCase) (*term.Tab, *wam.Module, *core.Result, []*term.Term, bool) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, c.source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	goals, err := parser.ParseGoal(tab, c.query)
	if err != nil || len(goals) != 1 {
		return nil, nil, nil, nil, false
	}
	goal := goals[0]
	fn, ok := term.Indicator(goal)
	if !ok || len(prog.Preds[fn]) == 0 {
		return nil, nil, nil, nil, false
	}
	shares := make(map[*term.VarRef]int)
	argAbs := make([]*domain.Term, len(goal.Args))
	for i, a := range goal.Args {
		argAbs[i] = domain.AbstractConcrete(tab, a, shares)
	}
	cp := domain.WidenPattern(tab, domain.NewPattern(fn, argAbs), core.DefaultConfig().Depth)
	cfg := core.DefaultConfig()
	cfg.MaxSteps = 5_000_000
	res, err := core.NewWith(mod, cfg).Analyze(cp)
	if errors.Is(err, core.ErrStepLimit) {
		return nil, nil, nil, nil, false
	}
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return tab, mod, res, goals, true
}

// goalVars collects the query's variables, deduplicated by name and
// sorted, matching refint's canonical answer rendering.
func goalVars(tab *term.Tab, goals []*term.Term) []*term.Term {
	seen := map[string]bool{}
	var vars []*term.Term
	cl := &term.Clause{Head: term.MkAtom(tab.True), Body: goals}
	for _, v := range cl.Vars() {
		if !seen[v.Ref.Name] {
			seen[v.Ref.Name] = true
			vars = append(vars, v)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Ref.Name < vars[j].Ref.Name })
	return vars
}

// refintAnswers runs the query on the reference SLD interpreter and
// returns sorted canonical answers; ok is false on budget exhaustion or
// when an answer was depth-truncated (not a faithful witness).
func refintAnswers(t *testing.T, tab *term.Tab, src string, goals []*term.Term, vars []*term.Term, max int) ([]string, bool) {
	t.Helper()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := compiler.ExpandedProgram(tab, prog)
	if err != nil {
		t.Fatal(err)
	}
	in := refint.New(tab, exp)
	in.MaxSteps = 3_000_000
	ans, err := in.AllSolutions(goals, vars, max)
	if err != nil {
		return nil, false
	}
	for _, a := range ans {
		if strings.Contains(a, "<deep>") {
			return nil, false
		}
	}
	return ans, true
}

// machineAnswers runs the query on the WAM machine over a fresh clone of
// mod (queries are compiled into the module) and canonicalizes the
// answers in refint's format.
func machineAnswers(t *testing.T, mod *wam.Module, query string, vars []*term.Term, max int) []string {
	t.Helper()
	m := machine.New(mod.Clone())
	m.MaxSteps = 50_000_000
	sol, err := m.Solve(query)
	if err != nil {
		t.Fatalf("machine solve %q: %v", query, err)
	}
	var out []string
	for sol.OK && len(out) < max {
		bind := sol.Bindings()
		parts := make([]string, len(vars))
		for i, v := range vars {
			tm, ok := bind[v.Ref.Name]
			if !ok {
				t.Fatalf("machine lost query variable %s", v.Ref.Name)
			}
			parts[i] = mod.Tab.Write(tm)
		}
		out = append(out, fmt.Sprintf("%v", parts))
		if _, err := sol.Next(); err != nil {
			t.Fatalf("machine redo %q: %v", query, err)
		}
	}
	sort.Strings(out)
	return out
}

func permutations(ps []Pass) [][]Pass {
	if len(ps) <= 1 {
		return [][]Pass{append([]Pass(nil), ps...)}
	}
	var out [][]Pass
	for i := range ps {
		rest := make([]Pass, 0, len(ps)-1)
		rest = append(rest, ps[:i]...)
		rest = append(rest, ps[i+1:]...)
		for _, tail := range permutations(rest) {
			out = append(out, append([]Pass{ps[i]}, tail...))
		}
	}
	return out
}

// TestPipelineOrderingsOnCorpus is the pipeline property test: every
// committed fuzz-corpus program, optimized under EVERY ordering of the
// pass set, must produce answers identical to the reference SLD
// interpreter's. Passes therefore commute up to observable semantics.
func TestPipelineOrderingsOnCorpus(t *testing.T) {
	const maxSol = 16
	perms := permutations(Passes())
	if len(perms) != 24 {
		t.Fatalf("%d orderings, want 4! = 24", len(perms))
	}
	checked := 0
	for _, c := range loadCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tab, mod, res, goals, ok := loadCase(t, c)
			if !ok {
				t.Skipf("out of scope: %q", c.query)
			}
			vars := goalVars(tab, goals)
			want, ok := refintAnswers(t, tab, c.source, goals, vars, maxSol)
			if !ok {
				t.Skipf("reference interpreter budget on %q", c.query)
			}
			for _, perm := range perms {
				names := make([]string, len(perm))
				for i, p := range perm {
					names[i] = p.Name()
				}
				pl := Pipeline{Passes: perm}
				opt, _, err := pl.Run(mod, res)
				if err != nil {
					t.Fatalf("order %v: %v", names, err)
				}
				got := machineAnswers(t, opt, c.query, vars, maxSol)
				if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
					t.Fatalf("order %v changed answers for %q:\nrefint:  %v\nmachine: %v",
						names, c.query, want, got)
				}
			}
			checked++
		})
	}
	t.Logf("checked %d corpus programs × %d orderings", checked, len(perms))
}

// TestGateOnCorpus enforces the shipping rule on the committed fuzz
// corpus: the full default pipeline, differentially gated on each
// program's query, must accept every pass — no shipped transformation
// may change an answer, and none may need rejecting on these programs.
func TestGateOnCorpus(t *testing.T) {
	for _, c := range loadCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, mod, res, _, ok := loadCase(t, c)
			if !ok {
				t.Skipf("out of scope: %q", c.query)
			}
			pl := Pipeline{Gate: &Gate{Goals: []string{c.query}}}
			_, outcomes, err := pl.Run(mod, res)
			if err != nil {
				t.Fatalf("gate rejected a shipped pass: %v", err)
			}
			for _, oc := range outcomes {
				if oc.Rejected {
					t.Errorf("pass %s rejected: %s", oc.Name, oc.RejectReason)
				}
			}
		})
	}
}

// TestGateOnBenchSuite enforces the same rule on the Table 1 suite and
// its extensions: every benchmark, analyzed from main/0 and optimized by
// the gated default pipeline, keeps main's observable behavior.
func TestGateOnBenchSuite(t *testing.T) {
	for _, p := range bench.AllPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tab := term.NewTab()
			prog, err := parser.ParseProgram(tab, p.Source)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := compiler.Compile(tab, prog)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.New(mod).AnalyzeAll()
			if err != nil {
				t.Fatal(err)
			}
			pl := Pipeline{Gate: &Gate{Goals: []string{"main"}}}
			_, outcomes, err := pl.Run(mod, res)
			if err != nil {
				t.Fatalf("gate rejected a shipped pass: %v", err)
			}
			for _, oc := range outcomes {
				if oc.Rejected {
					t.Errorf("pass %s rejected: %s", oc.Name, oc.RejectReason)
				}
			}
		})
	}
}
