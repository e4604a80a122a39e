package core

import (
	"strings"
	"testing"

	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// trapModule is an assembled module whose bad/1 clause carries BODY
// between two ordinary instructions; main/0 calls CALLEE.
const trapModule = `% main/0:
% main/0 clause 1:
    allocate 1
    put_variable Y0, A1
    call CALLEE/1
    put_value Y0, A1
    deallocate
    execute r/1
% p/1:
% p/1 clause 1:
    get_constant a, A1
    proceed
% r/1:
% r/1 clause 1:
    proceed
% bad/1:
% bad/1 clause 1:
    get_variable X2, A1
    BODY
    put_value X2, A1
    execute p/1
`

func assembleTrap(t *testing.T, callee, body string) *wam.Module {
	t.Helper()
	src := strings.NewReplacer("CALLEE", callee, "BODY", body).Replace(trapModule)
	mod, err := wam.Assemble(term.NewTab(), src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// trapLegs runs each case on the plain stream and on the fully
// specialized program.
var trapLegs = []struct {
	name string
	spec func(*wam.Module) *specialize.Program
}{
	{"plain", func(*wam.Module) *specialize.Program { return nil }},
	{"full", func(mod *wam.Module) *specialize.Program {
		return specialize.Build(mod, nil, nil, specialize.Options{Fuse: true, PreIntern: true})
	}},
}

var trapStrategies = []struct {
	name  string
	strat Strategy
}{
	{"worklist", StrategyWorklist},
	{"naive", StrategyNaive},
}

func analyzeTrap(mod *wam.Module, strat Strategy, spec *specialize.Program) (*Analyzer, *Result, error) {
	cfg := DefaultConfig()
	cfg.Strategy = strat
	cfg.Spec = spec
	a := NewWith(mod, cfg)
	res, err := a.AnalyzeMain()
	return a, res, err
}

// TestTrapWordReachable: a choice instruction inside a reachable clause
// body fails the analysis with the error text and at the step count the
// generic opcode switch produced.
func TestTrapWordReachable(t *testing.T) {
	const wantErr = "core: unexpected opcode try_me_else 3 inside clause at 10"
	for _, leg := range trapLegs {
		for _, st := range trapStrategies {
			mod := assembleTrap(t, "bad", "try_me_else 3")
			a, _, err := analyzeTrap(mod, st.strat, leg.spec(mod))
			if err == nil || err.Error() != wantErr {
				t.Errorf("%s/%s: err = %v, want %q", leg.name, st.name, err, wantErr)
				continue
			}
			if a.Steps != 5 {
				t.Errorf("%s/%s: Steps at failure = %d, want 5", leg.name, st.name, a.Steps)
			}
		}
	}
}

// TestTrapWordUnreachable: the same trap in a clause the analysis never
// enters changes nothing — the result is the one the generic switch
// produced for this module.
func TestTrapWordUnreachable(t *testing.T) {
	const want = "awam-analysis 1\ncall main\nsucc main\ncall p(var)\nsucc p(atom)\ncall r(atom)\nsucc r(atom)\n"
	// Naive runs main's clause once: its second pass replays main's
	// record (p's summary is unchanged) instead of executing it again.
	wantSteps := map[Strategy]int64{StrategyWorklist: 9, StrategyNaive: 9}
	for _, leg := range trapLegs {
		for _, st := range trapStrategies {
			mod := assembleTrap(t, "p", "try_me_else 3")
			_, res, err := analyzeTrap(mod, st.strat, leg.spec(mod))
			if err != nil {
				t.Errorf("%s/%s: %v", leg.name, st.name, err)
				continue
			}
			if got := res.Marshal(); got != want {
				t.Errorf("%s/%s: Marshal\n%s\nwant\n%s", leg.name, st.name, got, want)
			}
			if n := wantSteps[st.strat]; res.Steps != n {
				t.Errorf("%s/%s: Steps = %d, want %d", leg.name, st.name, res.Steps, n)
			}
		}
	}
}

// TestTrapWordRegister: a register operand that does not fit a stream
// word's 16 bits fails the analysis with an error when executed, never
// a panic.
func TestTrapWordRegister(t *testing.T) {
	const wantErr = "core: register operand out of range in get_variable X70000, A1 inside clause at 10"
	for _, leg := range trapLegs {
		for _, st := range trapStrategies {
			mod := assembleTrap(t, "bad", "get_variable X70000, A1")
			_, _, err := analyzeTrap(mod, st.strat, leg.spec(mod))
			if err == nil || err.Error() != wantErr {
				t.Errorf("%s/%s: err = %v, want %q", leg.name, st.name, err, wantErr)
			}
		}
	}
}

// TestClauseOutsideProgram: a supplied program that leaves out a
// predicate the analysis reaches fails it with an error; no other
// engine runs the clause.
func TestClauseOutsideProgram(t *testing.T) {
	mod := assembleTrap(t, "p", "nop")
	main := mod.Tab.Func("main", 0)
	spec := specialize.Build(mod, [][]term.Functor{{main}}, nil, specialize.Options{})
	_, _, err := analyzeTrap(mod, StrategyWorklist, spec)
	if err == nil || !strings.Contains(err.Error(), "outside the transfer program's components") {
		t.Fatalf("err = %v, want a clause-outside-program error", err)
	}
}
