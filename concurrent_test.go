package awam

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"awam/internal/bench"
)

// concurrentProg exercises every run-time writer of the symbol table:
// the optimizer's gate runs compare/3, which interns its order atoms,
// and none of those atoms appears in the source.
const concurrentProg = `
main :- qsort([3,1,2], X), app(X, [4], Y), ordered(Y).
qsort([], []).
qsort([H|T], S) :- part(H, T, L, G), qsort(L, SL), qsort(G, SG), app(SL, [H|SG], S).
part(_, [], [], []).
part(P, [X|Xs], [X|L], G) :- X =< P, part(P, Xs, L, G).
part(P, [X|Xs], L, [X|G]) :- X > P, part(P, Xs, L, G).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
ordered([]).
ordered([_]).
ordered([A,B|T]) :- compare(O, A, B), seen(O), ordered([B|T]).
seen(_).
`

// TestSystemConcurrentUse runs every analysis entry point, and the
// concrete machine, concurrently on one shared System and checks each
// result against the same call on a private System. Run it under -race:
// the shared System's code, symbol table, condensation, specialized
// program and private backward engine are all reached from several
// goroutines at once.
func TestSystemConcurrentUse(t *testing.T) {
	type task struct {
		name string
		run  func(sys *System, a *Analysis) string
	}
	errText := func(err error) string { return "error: " + err.Error() }
	analyze := func(opts ...AnalyzeOption) func(*System, *Analysis) string {
		return func(sys *System, _ *Analysis) string {
			a, err := sys.Analyze(opts...)
			if err != nil {
				return errText(err)
			}
			return a.Marshal()
		}
	}
	backward := func(opts ...BackwardOption) func(*System, *Analysis) string {
		return func(sys *System, _ *Analysis) string {
			b, err := sys.AnalyzeBackward(opts...)
			if err != nil {
				return errText(err)
			}
			return b.Marshal()
		}
	}
	// newStore gives each call its own store, so a warm or cold hit
	// cannot differ between the shared and the private run. It runs on
	// the test's goroutines, so it reports with Error, not Fatal.
	newStore := func() Store {
		st, err := NewStore()
		if err != nil {
			t.Error(err)
		}
		return st
	}
	tasks := []task{
		{"analyze", analyze()},
		{"analyze-worklist", analyze(WithStrategy(Worklist))},
		{"analyze-store", func(sys *System, a *Analysis) string {
			return analyze(WithSummaryCache(newStore()))(sys, a)
		}},
		{"backward-main", backward(WithGoal("main/0"))},
		{"backward-goals", backward(WithGoal("qsort/2"), WithGoal("app/3"))},
		{"backward-store", func(sys *System, a *Analysis) string {
			return backward(WithGoal("part/4"), WithBackwardStore(newStore()))(sys, a)
		}},
		{"backward-unknown", backward(WithGoal("nosuch/3"))},
		{"optimize", func(sys *System, a *Analysis) string {
			opt, rep, err := sys.Optimize(a, WithMeasureRuns(0))
			if err != nil {
				return errText(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return errText(err)
			}
			return string(b) + "\n" + opt.Disasm()
		}},
		{"run", func(sys *System, _ *Analysis) string {
			sol, err := sys.Run("qsort([2,3,1], X)")
			if err != nil {
				return errText(err)
			}
			ok, err := sys.RunMain()
			return fmt.Sprint(sol.OK, sol.Bindings, ok, err)
		}},
		{"marshal", func(_ *System, a *Analysis) string { return a.Marshal() }},
		{"summary", func(_ *System, a *Analysis) string {
			var sb strings.Builder
			for _, p := range a.Predicates() {
				s, ok := a.Summary(p)
				b, err := json.Marshal(s)
				if err != nil {
					return errText(err)
				}
				fmt.Fprintf(&sb, "%s %v %s\n", p, ok, b)
			}
			return sb.String()
		}},
	}

	load := func() (*System, *Analysis) {
		sys, err := Load(concurrentProg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return sys, a
	}
	want := make([]string, len(tasks))
	for i, tk := range tasks {
		sys, a := load()
		want[i] = tk.run(sys, a)
	}

	shared, sharedAnalysis := load()
	const rounds = 3
	got := make([]string, rounds*len(tasks))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, tk := range tasks {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				<-start
				got[slot] = tk.run(shared, sharedAnalysis)
			}(r*len(tasks) + i)
		}
	}
	close(start)
	wg.Wait()
	for slot, g := range got {
		i := slot % len(tasks)
		if g != want[i] {
			t.Errorf("%s (round %d): shared System result differs from a private one\nshared:\n%s\nprivate:\n%s",
				tasks[i].name, slot/len(tasks), g, want[i])
		}
	}
}

// TestSystemConcurrentLazyStreams analyzes one freshly loaded System
// from several goroutines at once, while none of its transfer streams
// is translated yet: cold specialized runs, warm runs through one shared
// store, and plain-stream runs. Every Marshal must equal a private
// System's. Run it under -race: the goroutines race to translate the
// same components.
func TestSystemConcurrentLazyStreams(t *testing.T) {
	src := bench.WideProgramSeeded(16, 1).Source
	ref, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Analyze(WithStrategy(Worklist))
	if err != nil {
		t.Fatal(err)
	}
	// Prime the shared store from another System, so the warm runs are
	// warm while the shared System's streams are still untranslated.
	st, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Analyze(WithSummaryCache(st)); err != nil {
		t.Fatal(err)
	}
	shared, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	legs := [][]AnalyzeOption{
		{WithStrategy(Worklist)},
		{},
		{WithSummaryCache(st)},
		{WithSpecializedTransfer(false)},
	}
	const rounds = 2
	got := make([]string, rounds*len(legs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for slot := range got {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			<-start
			a, err := shared.Analyze(legs[slot%len(legs)]...)
			if err != nil {
				got[slot] = "error: " + err.Error()
				return
			}
			got[slot] = a.Marshal()
		}(slot)
	}
	close(start)
	wg.Wait()
	for slot, g := range got {
		if g != want.Marshal() {
			t.Errorf("leg %d (round %d): shared System result differs from a private one", slot%len(legs), slot/len(legs))
		}
	}
}
