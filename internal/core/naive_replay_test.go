package core_test

import (
	"reflect"
	"testing"

	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
)

// TestNaiveReplayMatchesExecution runs the naive fixpoint twice over
// the replay corpus — replaying unchanged explorations from their
// records, and running every exploration's clauses — and requires the
// same number of passes, the same table (calling-pattern ID → summary
// ID, in insertion order) after every pass, the same published analysis
// and warnings, a finalize pass that replays every entry in both, and
// no more executed instructions with the replay than without.
func TestNaiveReplayMatchesExecution(t *testing.T) {
	for name, src := range replayCorpus(t) {
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, src)
		if err != nil {
			continue // raw fuzz sources need not parse
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.MaxSteps = 50_000_000
			ran, ranPasses, err := core.NaiveRun(mod, cfg, false)
			if err != nil {
				t.Skipf("fixpoint: %v", err)
			}
			replayed, passes, err := core.NaiveRun(mod, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.Iterations != ran.Iterations {
				t.Fatalf("iterations: %d with replay, %d without", replayed.Iterations, ran.Iterations)
			}
			if len(passes) != len(ranPasses) {
				t.Fatalf("%d passes with replay, %d without", len(passes), len(ranPasses))
			}
			for i := range passes {
				if !reflect.DeepEqual(passes[i], ranPasses[i]) {
					t.Fatalf("table after pass %d (size %d) differs from execution's (size %d):\n got %v\nwant %v",
						i+1, len(passes[i]), len(ranPasses[i]), passes[i], ranPasses[i])
				}
			}
			if got, want := replayed.Marshal(), ran.Marshal(); got != want {
				t.Fatalf("Marshal with replay:\n%s\nwithout:\n%s", got, want)
			}
			if !reflect.DeepEqual(replayed.Warnings, ran.Warnings) {
				t.Fatalf("warnings with replay %q, without %q", replayed.Warnings, ran.Warnings)
			}
			for _, r := range []*core.Result{replayed, ran} {
				if r.Metrics.FinalizeExecuted != 0 {
					t.Errorf("finalize executed %d entries; want every entry replayed", r.Metrics.FinalizeExecuted)
				}
			}
			if replayed.Steps > ran.Steps {
				t.Errorf("steps: %d with replay, %d without", replayed.Steps, ran.Steps)
			}
			if m := ran.Metrics; m.NaiveReplayed != 0 {
				t.Errorf("replay off: %d explorations replayed", m.NaiveReplayed)
			}
			m := replayed.Metrics
			if testing.Verbose() && replayed.Steps < ran.Steps {
				t.Logf("steps %d -> %d, replayed %d of %d explorations",
					ran.Steps, replayed.Steps, m.NaiveReplayed, m.NaiveReplayed+m.NaiveExecuted)
			}
		})
	}
}
