package awam

import (
	"errors"
	"reflect"
	"testing"
)

// observeProg is the naive-reverse fixture used across the
// observability tests; small, recursive, and strategy-sensitive.
const observeProg = `
main :- nrev([1,2,3,4,5], R), use(R).
nrev([], []).
nrev([X|T], R) :- nrev(T, RT), append(RT, [X], R).
append([], L, L).
append([X|L1], L2, [X|L3]) :- append(L1, L2, L3).
use(_).
`

// observeStrategies enumerates the option sets the metrics invariants
// must hold under.
var observeStrategies = []struct {
	name string
	opts []AnalyzeOption
}{
	{"naive", nil},
	{"worklist", []AnalyzeOption{WithStrategy(Worklist)}},
}

// TestMetricsTotals: under every strategy the per-predicate step
// attribution and the opcode histogram each partition Stats().Exec
// exactly, and the table counters are internally consistent.
func TestMetricsTotals(t *testing.T) {
	sys, err := Load(observeProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range observeStrategies {
		t.Run(sc.name, func(t *testing.T) {
			an, err := sys.Analyze(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			exec := an.Stats().Exec
			m := an.Metrics()
			var predSum, opSum int64
			for _, p := range m.Predicates {
				predSum += p.Steps
			}
			for _, op := range m.Opcodes {
				opSum += op.Count
			}
			if predSum != exec {
				t.Errorf("predicate steps sum to %d, Stats().Exec = %d", predSum, exec)
			}
			if opSum != exec {
				t.Errorf("opcode counts sum to %d, Stats().Exec = %d", opSum, exec)
			}
			if m.TableMisses != m.TableInserts {
				t.Errorf("misses (%d) != inserts (%d): every miss must insert",
					m.TableMisses, m.TableInserts)
			}
			if m.TableInserts < int64(an.Stats().TableSize) {
				t.Errorf("inserts (%d) < final table size (%d)",
					m.TableInserts, an.Stats().TableSize)
			}
			if m.HeapHighWater <= 0 {
				t.Errorf("HeapHighWater = %d, want > 0", m.HeapHighWater)
			}
		})
	}
}

// TestOptionValidation: every invalid option value is rejected with
// ErrBadOption before any analysis runs.
func TestOptionValidation(t *testing.T) {
	sys, err := Load(observeProg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  AnalyzeOption
	}{
		{"negative depth", WithDepth(-1)},
		{"negative budget", WithMaxSteps(-1)},
		{"zero budget", WithMaxSteps(0)},
		{"unknown strategy", WithStrategy(Strategy(99))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := sys.Analyze(tc.opt); !errors.Is(err, ErrBadOption) {
				t.Fatalf("err = %v, want ErrBadOption", err)
			}
		})
	}
}

// TestSharedStepBudget: WithMaxSteps bounds the fixpoint exactly under
// both strategies. A budget equal to the steps the run needs succeeds
// with that many steps; one step less, or a third of it, fails with
// ErrAnalysisBudget. The finalize pass draws on an allowance of its own,
// so an exact fixpoint budget does not starve it.
func TestSharedStepBudget(t *testing.T) {
	sys, err := Load(observeProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range observeStrategies {
		t.Run(sc.name, func(t *testing.T) {
			an, err := sys.Analyze(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			need := an.Stats().Exec
			if need/3 <= 0 {
				t.Fatalf("fixture too small: run took %d steps", need)
			}
			for _, short := range []int64{need / 3, need - 1} {
				opts := append([]AnalyzeOption{WithMaxSteps(short)}, sc.opts...)
				if _, err := sys.Analyze(opts...); !errors.Is(err, ErrAnalysisBudget) {
					t.Fatalf("budget %d of %d needed: err = %v, want ErrAnalysisBudget", short, need, err)
				}
			}
			for _, budget := range []int64{need, 4 * need} {
				opts := append([]AnalyzeOption{WithMaxSteps(budget)}, sc.opts...)
				an, err := sys.Analyze(opts...)
				if err != nil {
					t.Fatalf("budget %d of %d needed: %v", budget, need, err)
				}
				if got := an.Stats().Exec; got != need {
					t.Errorf("budget %d: Stats().Exec = %d, want %d", budget, got, need)
				}
			}
		})
	}
}

// countingTracer tallies events.
type countingTracer struct {
	instrs     int64
	ops        map[string]int64
	table      map[TableEvent]int64
	enqueues   int64
	iterations int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{table: make(map[TableEvent]int64), ops: make(map[string]int64)}
}

func (c *countingTracer) Instr(pred, opcode string) {
	c.instrs++
	c.ops[opcode]++
}
func (c *countingTracer) Table(pred string, ev TableEvent) { c.table[ev]++ }
func (c *countingTracer) Enqueue(pred string)              { c.enqueues++ }
func (c *countingTracer) Iteration(n int)                  { c.iterations++ }

// TestTracerEvents: the tracer sees exactly the events the metrics
// count — one Instr per abstract instruction, table events matching the
// counters — plus the strategy-specific lifecycle callbacks. Observing a
// run does not change it: under every strategy, with the specialized
// streams on (the default) and off (the plain stream), a traced run
// gives the untraced run's Marshal, Steps and opcode histogram, and the
// per-opcode Instr counts equal its Metrics opcode histogram.
func TestTracerEvents(t *testing.T) {
	sys, err := Load(observeProg)
	if err != nil {
		t.Fatal(err)
	}

	histogram := func(m Metrics) map[string]int64 {
		h := make(map[string]int64, len(m.Opcodes))
		for _, op := range m.Opcodes {
			h[op.Opcode] = op.Count
		}
		return h
	}
	sameHistogram := func(a, b map[string]int64) bool {
		if len(a) != len(b) {
			return false
		}
		for op, n := range a {
			if b[op] != n {
				return false
			}
		}
		return true
	}
	for _, st := range []struct {
		name string
		opt  AnalyzeOption
	}{
		{"naive", WithStrategy(Naive)},
		{"worklist", WithStrategy(Worklist)},
	} {
		for _, leg := range []struct {
			name string
			on   bool
		}{{"specialized", true}, {"plain", false}} {
			t.Run("identical/"+st.name+"/"+leg.name, func(t *testing.T) {
				plain, err := sys.Analyze(st.opt, WithSpecializedTransfer(leg.on))
				if err != nil {
					t.Fatal(err)
				}
				tr := newCountingTracer()
				traced, err := sys.Analyze(st.opt, WithSpecializedTransfer(leg.on), WithTracer(tr))
				if err != nil {
					t.Fatal(err)
				}
				if traced.Marshal() != plain.Marshal() {
					t.Errorf("traced Marshal differs from untraced")
				}
				hist := histogram(traced.Metrics())
				if !sameHistogram(tr.ops, hist) {
					t.Errorf("Instr counts %v, Metrics opcodes %v", tr.ops, hist)
				}
				if traced.Stats().Exec != plain.Stats().Exec {
					t.Errorf("traced Steps = %d, untraced %d", traced.Stats().Exec, plain.Stats().Exec)
				}
				if want := histogram(plain.Metrics()); !sameHistogram(hist, want) {
					t.Errorf("traced opcode histogram %v, untraced %v", hist, want)
				}
			})
		}
	}

	t.Run("naive", func(t *testing.T) {
		tr := newCountingTracer()
		an, err := sys.Analyze(WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		if tr.instrs != an.Stats().Exec {
			t.Errorf("Instr events = %d, Stats().Exec = %d", tr.instrs, an.Stats().Exec)
		}
		if tr.iterations != an.Stats().Iterations {
			t.Errorf("Iteration events = %d, Stats().Iterations = %d",
				tr.iterations, an.Stats().Iterations)
		}
		m := an.Metrics()
		for _, chk := range []struct {
			ev   TableEvent
			want int64
		}{
			{TableHit, m.TableHits},
			{TableMiss, m.TableMisses},
			{TableInsert, m.TableInserts},
			{TableUpdate, m.TableUpdates},
		} {
			if got := tr.table[chk.ev]; got != chk.want {
				t.Errorf("%s events = %d, metrics count %d", chk.ev, got, chk.want)
			}
		}
	})

	t.Run("worklist", func(t *testing.T) {
		tr := newCountingTracer()
		an, err := sys.Analyze(WithStrategy(Worklist), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		if tr.instrs != an.Stats().Exec {
			t.Errorf("Instr events = %d, Stats().Exec = %d", tr.instrs, an.Stats().Exec)
		}
		if got, want := tr.enqueues, an.Metrics().Enqueues; got != want {
			t.Errorf("Enqueue events = %d, metrics count %d", got, want)
		}
	})
}

// TestSummaryTyped: the typed Summary agrees with the string accessors
// built on top of it and exposes per-argument structure.
func TestSummaryTyped(t *testing.T) {
	sys, err := Load(observeProg)
	if err != nil {
		t.Fatal(err)
	}
	an, err := sys.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := an.Summary("nosuch/3"); ok {
		t.Error("Summary of undefined predicate reported ok")
	}

	s, ok := an.Summary("nrev/2")
	if !ok {
		t.Fatal("no summary for nrev/2")
	}
	if !s.Succeeds {
		t.Error("nrev/2 marked non-succeeding")
	}
	if len(s.Args) != 2 {
		t.Fatalf("nrev/2 has %d arg summaries, want 2", len(s.Args))
	}
	if s.Args[0].Mode != ModeInGround {
		t.Errorf("nrev/2 arg 1 mode = %v, want %v (ground list in)", s.Args[0].Mode, ModeInGround)
	}
	if s.Args[1].Mode != ModeOutGround {
		t.Errorf("nrev/2 arg 2 mode = %v, want %v (free in, ground out)", s.Args[1].Mode, ModeOutGround)
	}
	if s.Args[0].CallType != TypeList {
		t.Errorf("nrev/2 arg 1 call type = %v, want %v", s.Args[0].CallType, TypeList)
	}
	if s.Args[1].CallType != TypeVar {
		t.Errorf("nrev/2 arg 2 call type = %v, want %v", s.Args[1].CallType, TypeVar)
	}

	// The string accessors are defined as views of the Summary.
	modes, ok := an.Modes("nrev/2")
	if !ok || modes != s.ModeString() {
		t.Errorf("Modes = %q (ok=%v), Summary.ModeString = %q", modes, ok, s.ModeString())
	}
	succ, ok := an.SuccessPattern("nrev/2")
	if !ok || succ != s.Success {
		t.Errorf("SuccessPattern = %q (ok=%v), Summary.Success = %q", succ, ok, s.Success)
	}
	if got := an.AliasPairs("nrev/2"); !reflect.DeepEqual(got, s.AliasPairs) {
		t.Errorf("AliasPairs = %v, Summary.AliasPairs = %v", got, s.AliasPairs)
	}
}
