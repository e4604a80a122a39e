package specialize_test

// The transfer streams promise byte-identity: for every program and
// every strategy, an analysis must produce the same Marshal output,
// execute the same number of abstract steps and charge the same opcode
// histogram whichever stream configuration runs it — only wall time may
// differ. This file enforces that promise differentially over every
// committed program corpus: the generated fuzz seeds, the raw-source
// fuzz corpus, the Table 1 + extended benchmark suites, and the
// historical non-confluence counterexample.
//
// The reference is testdata/reference.json: per program, the Marshal
// SHA-256, Steps and opcode histogram under the worklist and naive
// strategies. It was recorded from the generic opcode-switch engine the streams
// replaced, so every leg below — the plain stream (Config.Spec nil),
// flatten, fuse and full — is compared against that frozen engine's
// observable output. internal/baseline and internal/refint remain the
// independent cross-checks of the semantics itself.
//
// Strategy coverage: worklist and naive comparisons are exact (Marshal
// + Steps + Opcodes; both engines are fully deterministic). The
// widening is an upper closure, so the two strategies' Marshal digests
// are equal for every program. The interner counters are deliberately
// NOT compared: the pre-interning specialization exists to eliminate
// interner traffic, so those counters are legitimately lower. Table
// traffic is compared leg against leg instead: under worklist and naive,
// every leg's table hits, misses, inserts, updates, table size and
// enqueues must equal the plain leg's (the reference file predates
// those counters).

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
// exercised with the full comparison like any other program.
const confluenceRegressionSrc = `qsort([X|L], R, R0) :- partition(L, X, b1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
qsort([], R, R).
partition([X|L], Y, L1, [X|L2]).
partition([], _G0, [], []).
`

// referencePath is the frozen reference the differential legs compare
// against; regenerate it with SPEC_WRITE_REFERENCE=1 only after an
// intentional change of the analysis semantics.
const referencePath = "testdata/reference.json"

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

func analyzeWith(t *testing.T, mod *wam.Module, strat core.Strategy, spec *specialize.Program) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Strategy = strat
	cfg.Spec = spec
	res, err := core.NewWith(mod, cfg).AnalyzeAll()
	if err != nil {
		t.Fatalf("analyze (spec=%v): %v", spec != nil, err)
	}
	return res
}

// runRef is the observable output of one analysis.
type runRef struct {
	Marshal string           `json:"marshal_sha256"`
	Steps   int64            `json:"steps"`
	Opcodes map[string]int64 `json:"opcodes"`
	// Traffic is compared against the plain leg, not stored.
	Traffic tableTraffic `json:"-"`
}

// tableTraffic is one run's extension-table and worklist traffic.
type tableTraffic struct {
	Hits, Misses, Inserts, Updates, Enqueues int64
	Size                                     int
}

// programRef is one program's reference record.
type programRef struct {
	Worklist runRef `json:"worklist"`
	Naive    runRef `json:"naive"`
}

func digest(res *core.Result) string {
	sum := sha256.Sum256([]byte(res.Marshal()))
	return hex.EncodeToString(sum[:])
}

func record(res *core.Result) runRef {
	m := res.Metrics
	r := runRef{
		Marshal: digest(res), Steps: res.Steps, Opcodes: map[string]int64{},
		Traffic: tableTraffic{m.TableHits, m.TableMisses, m.TableInserts, m.TableUpdates, m.Enqueues, res.TableSize},
	}
	for op, n := range m.Opcodes {
		if n != 0 {
			r.Opcodes[wam.Op(op).String()] = n
		}
	}
	return r
}

// recordProgram runs the reference legs of one program with the given
// stream configuration (nil = the plain stream).
func recordProgram(t *testing.T, mod *wam.Module, spec *specialize.Program) programRef {
	return programRef{
		Worklist: record(analyzeWith(t, mod, core.StrategyWorklist, spec)),
		Naive:    record(analyzeWith(t, mod, core.StrategyNaive, spec)),
	}
}

var (
	refOnce sync.Once
	refs    map[string]programRef
	refErr  error
)

func reference(t *testing.T, key string) programRef {
	t.Helper()
	refOnce.Do(func() {
		data, err := os.ReadFile(referencePath)
		if err != nil {
			refErr = err
			return
		}
		refErr = json.Unmarshal(data, &refs)
	})
	if refErr != nil {
		t.Fatalf("reference %s unreadable: %v", referencePath, refErr)
	}
	ref, ok := refs[key]
	if !ok {
		t.Fatalf("%s has no record for %s (regenerate with SPEC_WRITE_REFERENCE=1 if the corpus grew)", referencePath, key)
	}
	return ref
}

// checkRun is the exact comparison of one run.
func checkRun(t *testing.T, name string, want, got runRef) {
	t.Helper()
	if want.Marshal != got.Marshal {
		t.Errorf("%s: Marshal digest %s, reference %s", name, got.Marshal, want.Marshal)
	}
	if want.Steps != got.Steps {
		t.Errorf("%s: Steps %d, reference %d", name, got.Steps, want.Steps)
	}
	for op := range mergeKeys(want.Opcodes, got.Opcodes) {
		if want.Opcodes[op] != got.Opcodes[op] {
			t.Errorf("%s: opcode %s count %d, reference %d", name, op, got.Opcodes[op], want.Opcodes[op])
		}
	}
}

// checkTraffic compares one leg's table traffic with the plain leg's.
func checkTraffic(t *testing.T, name string, plain, got tableTraffic) {
	t.Helper()
	if got != plain {
		t.Errorf("%s: table traffic %+v, plain leg %+v", name, got, plain)
	}
}

func mergeKeys(a, b map[string]int64) map[string]bool {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

// ablationLegs are the stream configurations under test; nil opts is
// the plain stream the engine builds itself when Config.Spec is nil.
var ablationLegs = []struct {
	name string
	opts *specialize.Options
}{
	{"plain", nil},
	{"flatten", &specialize.Options{}},
	{"fuse", &specialize.Options{Fuse: true}},
	{"full", &specialize.Options{Fuse: true, PreIntern: true}},
}

// diffProgram compares every leg of one program against its reference.
func diffProgram(t *testing.T, key, src string) {
	t.Helper()
	want := reference(t, key)
	_, mod := buildMod(t, src)
	var plain programRef
	for _, leg := range ablationLegs {
		var spec *specialize.Program
		if leg.opts != nil {
			spec = buildSpec(mod, *leg.opts)
			checkNoTraps(t, leg.name, spec)
		}
		got := recordProgram(t, mod, spec)
		checkRun(t, leg.name+"/worklist", want.Worklist, got.Worklist)
		checkRun(t, leg.name+"/naive", want.Naive, got.Naive)
		if leg.opts == nil {
			plain = got
		} else {
			checkTraffic(t, leg.name+"/worklist", plain.Worklist.Traffic, got.Worklist.Traffic)
			checkTraffic(t, leg.name+"/naive", plain.Naive.Traffic, got.Naive.Traffic)
		}
	}
}

// checkNoTraps asserts the compiler's output translates completely:
// trap words exist for hand-assembled code, never for compiled clauses.
// Every component is translated for the check, explored or not.
func checkNoTraps(t *testing.T, leg string, spec *specialize.Program) {
	t.Helper()
	for i := range spec.Comps {
		for _, ins := range spec.Comp(i).Code {
			if ins.Op == specialize.STrap {
				t.Fatalf("%s: compiled code produced a trap word %+v", leg, ins)
			}
		}
	}
}

// corpusProgram is one program of the differential corpus; key names
// its reference record.
type corpusProgram struct {
	name, key, src string
}

func benchCorpus() []corpusProgram {
	var out []corpusProgram
	for _, p := range bench.AllPrograms() {
		out = append(out, corpusProgram{p.Name, "bench/" + p.Name, p.Source})
	}
	return out
}

// seedCorpus reads the committed generated-fuzz seed corpus
// (testdata/fuzz/FuzzSoundness in internal/fuzz): each seed file holds
// the generator seed of one program.
func seedCorpus(t *testing.T) []corpusProgram {
	dir := filepath.Join("..", "fuzz", "testdata", "fuzz", "FuzzSoundness")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	var out []corpusProgram
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
		out = append(out, corpusProgram{f.Name(), "seed/" + f.Name(), c.Source})
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz seed corpus")
	}
	return out
}

// sourceCorpus reads the committed raw-source fuzz corpus
// (testdata/fuzz/FuzzSoundnessSource): two strings per file, program
// source and query; only the source matters here.
func sourceCorpus(t *testing.T) []corpusProgram {
	dir := filepath.Join("..", "fuzz", "testdata", "fuzz", "FuzzSoundnessSource")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	var out []corpusProgram
	for _, f := range files {
		vals, err := readCorpusFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if len(vals) != 2 {
			t.Fatalf("%s: want 2 corpus values, got %d", f.Name(), len(vals))
		}
		out = append(out, corpusProgram{f.Name(), "source/" + f.Name(), vals[0]})
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz source corpus")
	}
	return out
}

func confluenceCorpus() []corpusProgram {
	return []corpusProgram{{"confluence_regression", "confluence_regression", confluenceRegressionSrc}}
}

func parses(src string) error {
	_, err := parser.ParseProgram(term.NewTab(), src)
	return err
}

// TestDifferentialBench covers the Table 1 and extended benchmark
// suites.
func TestDifferentialBench(t *testing.T) {
	for _, p := range benchCorpus() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			diffProgram(t, p.key, p.src)
		})
	}
}

// TestDifferentialFuzzSeeds covers the committed generated-fuzz seed
// corpus.
func TestDifferentialFuzzSeeds(t *testing.T) {
	for _, p := range seedCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			diffProgram(t, p.key, p.src)
		})
	}
}

// TestDifferentialFuzzSources covers the committed raw-source fuzz
// corpus; entries that do not parse are skipped.
func TestDifferentialFuzzSources(t *testing.T) {
	for _, p := range sourceCorpus(t) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			if err := parses(p.src); err != nil {
				t.Skipf("corpus entry does not parse: %v", err)
			}
			diffProgram(t, p.key, p.src)
		})
	}
}

// TestDifferentialConfluenceRegression pins the historical
// counterexample with the full comparison: the program that once
// separated schedules must now be byte-identical across every engine
// and strategy.
func TestDifferentialConfluenceRegression(t *testing.T) {
	p := confluenceCorpus()[0]
	diffProgram(t, p.key, p.src)
}

// TestWriteReference regenerates testdata/reference.json from the
// plain stream when SPEC_WRITE_REFERENCE=1; otherwise it is skipped.
func TestWriteReference(t *testing.T) {
	if os.Getenv("SPEC_WRITE_REFERENCE") == "" {
		t.Skip("set SPEC_WRITE_REFERENCE=1 to regenerate " + referencePath)
	}
	out := make(map[string]programRef)
	var all []corpusProgram
	all = append(all, benchCorpus()...)
	all = append(all, seedCorpus(t)...)
	all = append(all, sourceCorpus(t)...)
	all = append(all, confluenceCorpus()...)
	for _, p := range all {
		if parses(p.src) != nil {
			continue
		}
		_, mod := buildMod(t, p.src)
		out[p.key] = recordProgram(t, mod, nil)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
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
