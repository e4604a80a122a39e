package optimize

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

var update = flag.Bool("update", false, "rewrite golden files")

// passProg exercises every pass: unused/1 is unreachable (strip),
// step's g and h clauses match no recorded call so only the f clause
// survives and its choice point goes away (dead-clause), w/2 has a
// variable-headed clause so the compiler cannot index it but the
// analysis proves arg 1 bound (index), and the ground calls specialize
// head unification (specialize).
const passProg = `
main :- step(f(1), A), step(f(2), B), join(A, B, _), w(a, _), w(b, _).
step(f(X), X).
step(g(X), X).
step(h(X), X).
join(X, Y, p(X, Y)).
w(a, 1).
w(b, 2).
w(_, 0).
unused(Z) :- join(Z, Z, _).
`

func mustLoad(t *testing.T, src string) (*term.Tab, *wam.Module, *core.Result) {
	t.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, src)
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
	return tab, mod, res
}

// TestPassGolden pins each pass's exact output code: the disassembly
// after applying one pass to passProg must be byte-identical to its
// golden file (regenerate with -update).
func TestPassGolden(t *testing.T) {
	for _, p := range Passes() {
		t.Run(p.Name(), func(t *testing.T) {
			_, mod, res := mustLoad(t, passProg)
			out, stats, err := p.Apply(mod, res)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Total == 0 {
				t.Fatalf("pass %s did nothing on its showcase program", p.Name())
			}
			got := out.Disasm()
			golden := filepath.Join("testdata", "golden", p.Name()+".disasm")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("disasm drifted from %s:\n--- got ---\n%s", golden, got)
			}
		})
	}
}

// TestPassDisasmRoundTrips: every pass's output — including the new
// switch defaults and appended dispatch blocks — survives a
// Disasm/Assemble round trip byte-identically.
func TestPassDisasmRoundTrips(t *testing.T) {
	tab, mod, res := mustLoad(t, passProg)
	cur := mod
	for _, p := range Passes() {
		next, _, err := p.Apply(cur, res)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	text := cur.Disasm()
	back, err := wam.Assemble(tab, text)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, text)
	}
	if got := back.Disasm(); got != text {
		t.Errorf("round trip drifted:\n--- first ---\n%s\n--- second ---\n%s", text, got)
	}
}

// TestPipelineOutcomes: the full pipeline on passProg strips unused/1,
// drops the dead step clause, indexes w/2, specializes, and the result
// still answers main/0.
func TestPipelineOutcomes(t *testing.T) {
	tab, mod, res := mustLoad(t, passProg)
	pl := Pipeline{Gate: &Gate{Goals: []string{"main"}}}
	out, outcomes, err := pl.Run(mod, res)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PassOutcome{}
	for _, oc := range outcomes {
		if oc.Rejected {
			t.Fatalf("pass %s rejected: %s", oc.Name, oc.RejectReason)
		}
		byName[oc.Name] = oc
	}
	if got := byName["strip-unreachable"].Stats.ClauseDelta; got != -1 {
		t.Errorf("strip clause delta = %d, want -1", got)
	}
	if got := byName["dead-clause"].Stats.Rewrites["dead clause"]; got != 2 {
		t.Errorf("dead clauses = %d, want 2 (step's g and h clauses)", got)
	}
	if got := byName["dead-clause"].Stats.Rewrites["choice point eliminated"]; got != 1 {
		t.Errorf("choice points eliminated = %d, want 1 (step/2)", got)
	}
	if got := byName["index"].Stats.Rewrites["indexed predicate"]; got != 1 {
		t.Errorf("indexed predicates = %d, want 1 (w/2)", got)
	}
	if byName["specialize"].Stats.Total == 0 {
		t.Error("no specializations")
	}
	if out.Proc(tab.Func("unused", 1)) != nil {
		t.Error("unused/1 survived stripping")
	}
	wProc := out.Proc(tab.Func("w", 2))
	if wProc == nil || out.Code[wProc.Entry].Op != wam.OpSwitchOnTerm {
		t.Error("w/2 not indexed")
	}
	if err := (&Gate{Goals: []string{"main", "w(a, N)", "step(f(7), V)"}}).Check(mod, out); err != nil {
		t.Errorf("final module diverges: %v", err)
	}
}

// breakerPass deliberately changes semantics: it drops the last clause
// of every multi-clause predicate. The gate must reject it.
type breakerPass struct{}

func (breakerPass) Name() string { return "breaker" }

func (breakerPass) Apply(mod *wam.Module, _ *core.Result) (*wam.Module, PassStats, error) {
	out := mod.Clone()
	var ps PassStats
	for _, fn := range mod.Order {
		proc := out.Procs[fn]
		if len(proc.Clauses) < 2 {
			continue
		}
		keep := proc.Clauses[:len(proc.Clauses)-1]
		entry := emitBlock(out, keep)
		proc.Entry = entry
		proc.Clauses = keep
		retargetCalls(out, fn, entry)
		ps.note("dropped clause", 1)
	}
	return out, ps, nil
}

// TestGateRejectsUnsoundPass: an answer-changing pass is rejected with
// a GateError (wrapping ErrOptimize), its output is discarded, and the
// passes around it still apply. The gate goals stay inside the analysis
// contract (w's first argument bound, as main calls it): w(b, N) loses
// its second answer when the breaker drops w(_, 0).
func TestGateRejectsUnsoundPass(t *testing.T) {
	_, mod, res := mustLoad(t, passProg)
	pl := Pipeline{
		Passes: []Pass{specializePass{}, breakerPass{}, indexPass{}},
		Gate:   &Gate{Goals: []string{"main", "w(b, N)"}},
	}
	out, outcomes, err := pl.Run(mod, res)
	if err == nil {
		t.Fatal("unsound pass shipped silently")
	}
	if !errors.Is(err, ErrOptimize) {
		t.Errorf("gate error does not wrap ErrOptimize: %v", err)
	}
	var gerr *GateError
	if !errors.As(err, &gerr) || gerr.Pass != "breaker" {
		t.Errorf("err = %v, want GateError for breaker", err)
	}
	var rejected, applied int
	for _, oc := range outcomes {
		if oc.Rejected {
			rejected++
			if oc.Name != "breaker" {
				t.Errorf("sound pass %s rejected: %s", oc.Name, oc.RejectReason)
			}
		} else {
			applied++
		}
	}
	if rejected != 1 || applied != 2 {
		t.Errorf("outcomes: %d rejected, %d applied; want 1 and 2", rejected, applied)
	}
	// The shipped module excludes the breaker: answers are unchanged.
	if err := (&Gate{Goals: []string{"main", "w(b, N)"}}).Check(mod, out); err != nil {
		t.Errorf("shipped module diverges: %v", err)
	}
}

// TestPassErrorWrapsOptimize: a pass that fails to apply surfaces as a
// PassError wrapping ErrOptimize and names the pass.
func TestPassErrorWrapsOptimize(t *testing.T) {
	err := error(&PassError{Pass: "index", Err: errors.New("boom")})
	if !errors.Is(err, ErrOptimize) {
		t.Error("PassError does not wrap ErrOptimize")
	}
	if _, uerr := PassByName("nope"); !errors.Is(uerr, ErrUnknownPass) {
		t.Error("unknown pass not typed")
	}
}

// TestDeadClauseDirectEntry: when one clause survives, the entry jumps
// straight at it — no choice point — and answers are preserved.
func TestDeadClauseDirectEntry(t *testing.T) {
	const prog = `
main :- sel(f(1), R), use(R).
sel(f(X), X).
sel(g(X), X).
use(_).
`
	tab, mod, res := mustLoad(t, prog)
	out, stats, err := deadClausePass{}.Apply(mod, res)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rewrites["choice point eliminated"] != 1 {
		t.Fatalf("stats = %+v, want one choice point eliminated", stats)
	}
	proc := out.Proc(tab.Func("sel", 2))
	if len(proc.Clauses) != 1 || proc.Entry != proc.Clauses[0] {
		t.Errorf("sel/2 entry %d clauses %v: not a direct entry", proc.Entry, proc.Clauses)
	}
	if err := (&Gate{Goals: []string{"main"}}).Check(mod, out); err != nil {
		t.Errorf("dead-clause diverges: %v", err)
	}
}
