package specialize_test

// The specialized transfer streams promise byte-identity: for every
// program and every strategy, a specialized analysis must produce the
// same Marshal output, execute the same number of abstract steps and
// charge the same opcode histogram as the generic switch engine — only
// wall time may differ. This file enforces that promise differentially
// over every committed program corpus: the generated fuzz seeds, the
// raw-source fuzz corpus, the Table 1 + extended benchmark suites, and
// the historical non-confluence counterexample.
//
// Strategy coverage: the worklist comparison is exact (Marshal + Steps
// + Opcodes; the sequential engine is fully deterministic). Parallel-2
// and parallel-4 compare Marshal only — the step totals of a parallel
// run are schedule-dependent in both engines. Since the widening
// became an upper closure the generic engine is schedule-confluent on
// every program, so parallel results are additionally pinned against
// the generic worklist (a divergence there is a confluence regression,
// not a reason to skip) and every ablation leg is compared under the
// parallel strategy too. The interner counters are deliberately NOT
// compared: the pre-interning specialization exists to eliminate
// interner traffic, so those counters are legitimately lower.

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/fuzz"
	"awam/internal/inc"
	"awam/internal/parser"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// confluenceRegressionSrc is the historical non-confluence
// counterexample (see internal/fuzz/knownlimits_test.go): under the
// pre-closure domain its schedules landed on different sound
// post-fixpoints. It is now byte-identical under every strategy and is
// exercised with the full parallel comparison like any other program.
const confluenceRegressionSrc = `qsort([X|L], R, R0) :- partition(L, X, b1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
qsort([], R, R).
partition([X|L], Y, L1, [X|L2]).
partition([], _G0, [], []).
`

func buildMod(t testing.TB, src string) (*term.Tab, *wam.Module) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return tab, mod
}

// buildSpec assembles the specialized program the way the facade does:
// components from the module's condensation, fusion set from the static
// opcode profile.
func buildSpec(mod *wam.Module, opts specialize.Options) *specialize.Program {
	return specialize.Build(mod, components(mod), specialize.StaticProfile(mod), opts)
}

// components lists the member sets of mod's condensation.
func components(mod *wam.Module) [][]term.Functor {
	sccs := inc.NewCondensation(mod).SCCs
	comps := make([][]term.Functor, len(sccs))
	for i, scc := range sccs {
		comps[i] = scc.Members
	}
	return comps
}

func analyzeWith(t *testing.T, mod *wam.Module, strat core.Strategy, workers int, spec *specialize.Program) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Strategy = strat
	cfg.Parallelism = workers
	cfg.Spec = spec
	res, err := core.NewWith(mod, cfg).AnalyzeAll()
	if err != nil {
		t.Fatalf("analyze (spec=%v): %v", spec != nil, err)
	}
	return res
}

// checkIdentical is the exact worklist comparison.
func checkIdentical(t *testing.T, name string, generic, spec *core.Result) {
	t.Helper()
	if g, s := generic.Marshal(), spec.Marshal(); g != s {
		t.Errorf("%s: Marshal differs\n--- generic ---\n%s--- specialized ---\n%s", name, g, s)
	}
	if generic.Steps != spec.Steps {
		t.Errorf("%s: Steps differ: generic %d, specialized %d", name, generic.Steps, spec.Steps)
	}
	if generic.Metrics != nil && spec.Metrics != nil && generic.Metrics.Opcodes != spec.Metrics.Opcodes {
		for op := range generic.Metrics.Opcodes {
			if generic.Metrics.Opcodes[op] != spec.Metrics.Opcodes[op] {
				t.Errorf("%s: opcode %v count: generic %d, specialized %d",
					name, wam.Op(op), generic.Metrics.Opcodes[op], spec.Metrics.Opcodes[op])
			}
		}
	}
}

// ablationLegs are the specializer configurations under test; every one
// must be byte-identical to generic.
var ablationLegs = []struct {
	name string
	opts specialize.Options
}{
	{"flatten", specialize.Options{}},
	{"fuse", specialize.Options{Fuse: true}},
	{"full", specialize.Options{Fuse: true, PreIntern: true}},
}

// diffProgram runs the full differential comparison for one source.
func diffProgram(t *testing.T, src string, parallel bool) {
	t.Helper()
	_, mod := buildMod(t, src)
	wl := analyzeWith(t, mod, core.StrategyWorklist, 0, nil)
	for _, leg := range ablationLegs {
		spec := buildSpec(mod, leg.opts)
		checkIdentical(t, "worklist/"+leg.name, wl, analyzeWith(t, mod, core.StrategyWorklist, 0, spec))
	}
	if !parallel {
		return
	}
	for _, workers := range []int{2, 4} {
		genPar := analyzeWith(t, mod, core.StrategyParallel, workers, nil)
		if genPar.Marshal() != wl.Marshal() {
			t.Errorf("parallel-%d: generic engine diverged from its own worklist (confluence regression)\n--- worklist ---\n%s--- parallel ---\n%s",
				workers, wl.Marshal(), genPar.Marshal())
			continue
		}
		for _, leg := range ablationLegs {
			spec := buildSpec(mod, leg.opts)
			specPar := analyzeWith(t, mod, core.StrategyParallel, workers, spec)
			if got := specPar.Marshal(); got != wl.Marshal() {
				t.Errorf("parallel-%d/%s: Marshal differs\n--- generic ---\n%s--- specialized ---\n%s",
					workers, leg.name, wl.Marshal(), got)
			}
		}
	}
}

// TestDifferentialBench covers the Table 1 and extended benchmark
// suites under worklist (all three ablation legs) and parallel-2/4.
func TestDifferentialBench(t *testing.T) {
	for _, p := range bench.AllPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			diffProgram(t, p.Source, true)
		})
	}
}

// TestDifferentialFuzzSeeds covers the committed generated-fuzz seed
// corpus (testdata/fuzz/FuzzSoundness in internal/fuzz): each seed file
// holds the generator seed of one program.
func TestDifferentialFuzzSeeds(t *testing.T) {
	dir := filepath.Join("..", "fuzz", "testdata", "fuzz", "FuzzSoundness")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	ran := 0
	for _, f := range files {
		vals, err := readCorpusFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if len(vals) != 1 {
			t.Fatalf("%s: want 1 corpus value, got %d", f.Name(), len(vals))
		}
		seed, err := strconv.ParseInt(vals[0], 10, 64)
		if err != nil {
			t.Fatalf("%s: bad seed: %v", f.Name(), err)
		}
		c := fuzz.Generate(seed, fuzz.DefaultGenConfig())
		name := f.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffProgram(t, c.Source, true)
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("empty fuzz seed corpus")
	}
}

// TestDifferentialFuzzSources covers the committed raw-source fuzz
// corpus (testdata/fuzz/FuzzSoundnessSource): two strings per file,
// program source and query; only the source matters here.
func TestDifferentialFuzzSources(t *testing.T) {
	dir := filepath.Join("..", "fuzz", "testdata", "fuzz", "FuzzSoundnessSource")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	ran := 0
	for _, f := range files {
		vals, err := readCorpusFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if len(vals) != 2 {
			t.Fatalf("%s: want 2 corpus values, got %d", f.Name(), len(vals))
		}
		src := vals[0]
		name := f.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := parser.ParseProgram(term.NewTab(), src); err != nil {
				t.Skipf("corpus entry does not parse: %v", err)
			}
			diffProgram(t, src, true)
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("empty fuzz source corpus")
	}
}

// TestDifferentialConfluenceRegression pins the historical
// counterexample with the full comparison, parallel legs included: the
// program that once separated schedules must now be byte-identical
// across every engine and strategy.
func TestDifferentialConfluenceRegression(t *testing.T) {
	diffProgram(t, confluenceRegressionSrc, true)
}

// readCorpusFile parses the "go test fuzz v1" encoding: a header line
// followed by one Go-syntax literal per line (string("...") or
// int64(N)); the literal payloads are returned in order.
func readCorpusFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var vals []string
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if first {
			first = false
			continue // "go test fuzz v1"
		}
		if line == "" {
			continue
		}
		open := strings.Index(line, "(")
		close := strings.LastIndex(line, ")")
		if open < 0 || close < open {
			continue
		}
		payload := line[open+1 : close]
		if strings.HasPrefix(line, "string(") {
			s, err := strconv.Unquote(payload)
			if err != nil {
				return nil, err
			}
			vals = append(vals, s)
		} else {
			vals = append(vals, payload)
		}
	}
	return vals, sc.Err()
}
