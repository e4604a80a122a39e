package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"awam/internal/bench"
	"awam/internal/wam"
)

func analyzeStrategy(t *testing.T, mod *wam.Module, strat Strategy, workers int) *Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Strategy = strat
	cfg.Parallelism = workers
	res, err := NewWith(mod, cfg).AnalyzeMain()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelMatchesWorklist is the determinism contract of
// StrategyParallel: for every program in the Table 1 suite, the parallel
// result's Report() and Marshal() output is byte-identical to
// StrategyWorklist. Both strategies converge the same least fixpoint and
// present it through the deterministic finalize pass, so this holds for
// any worker count and schedule.
func TestParallelMatchesWorklist(t *testing.T) {
	for _, p := range bench.Programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, mod := buildMod(t, p.Source)
			wl := analyzeStrategy(t, mod, StrategyWorklist, 0)
			for _, workers := range []int{1, 2, 4, 8} {
				par := analyzeStrategy(t, mod, StrategyParallel, workers)
				if got, want := par.Marshal(), wl.Marshal(); got != want {
					t.Fatalf("Marshal mismatch at %d workers:\n--- parallel ---\n%s--- worklist ---\n%s",
						workers, got, want)
				}
				if got, want := par.Report(), wl.Report(); got != want {
					t.Fatalf("Report mismatch at %d workers:\n--- parallel ---\n%s--- worklist ---\n%s",
						workers, got, want)
				}
				if par.TableSize != wl.TableSize {
					t.Fatalf("table sizes differ at %d workers: %d vs %d",
						workers, par.TableSize, wl.TableSize)
				}
			}
		})
	}
}

// TestParallelMatchesWorklistExtended extends the byte-identity check to
// the extended suite (control constructs, heavier arithmetic) at one
// worker count.
func TestParallelMatchesWorklistExtended(t *testing.T) {
	for _, p := range bench.Extended {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			_, mod := buildMod(t, p.Source)
			wl := analyzeStrategy(t, mod, StrategyWorklist, 0)
			par := analyzeStrategy(t, mod, StrategyParallel, 4)
			if par.Marshal() != wl.Marshal() {
				t.Fatalf("Marshal mismatch:\n--- parallel ---\n%s--- worklist ---\n%s",
					par.Marshal(), wl.Marshal())
			}
		})
	}
}

// TestParallelMatchesWorklistWide checks the determinism contract on a
// generated wide program, whose extension table is an order of magnitude
// larger than any Table 1 benchmark's — the regime the sharded table is
// built for (see BenchmarkAnalyzeParallel).
func TestParallelMatchesWorklistWide(t *testing.T) {
	p := bench.WideProgram(16)
	_, mod := buildMod(t, p.Source)
	wl := analyzeStrategy(t, mod, StrategyWorklist, 0)
	for _, workers := range []int{1, 4} {
		par := analyzeStrategy(t, mod, StrategyParallel, workers)
		if par.Marshal() != wl.Marshal() {
			t.Fatalf("Marshal mismatch at %d workers on %s", workers, p.Name)
		}
		if par.TableSize != wl.TableSize {
			t.Fatalf("table sizes differ at %d workers: %d vs %d",
				workers, par.TableSize, wl.TableSize)
		}
	}
}

// TestParallelStress is the -race stress test: 8 workers over the
// recursive benchmark programs, 20 runs each, asserting a stable
// TableSize and byte-identical marshaled results versus the sequential
// worklist. Under -race this exercises the sharded table, the entry
// merge path and the idle-worker barrier across many schedules.
func TestParallelStress(t *testing.T) {
	recursive := []string{"nreverse", "qsort", "tak", "serialise", "queens_8"}
	for _, name := range recursive {
		name := name
		t.Run(name, func(t *testing.T) {
			p, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %s", name)
			}
			_, mod := buildMod(t, p.Source)
			wl := analyzeStrategy(t, mod, StrategyWorklist, 0)
			want := wl.Marshal()
			for i := 0; i < 20; i++ {
				res := analyzeStrategy(t, mod, StrategyParallel, 8)
				if res.TableSize != wl.TableSize {
					t.Fatalf("run %d: TableSize %d, want %d", i, res.TableSize, wl.TableSize)
				}
				if got := res.Marshal(); got != want {
					t.Fatalf("run %d: marshal mismatch:\n--- parallel ---\n%s--- worklist ---\n%s",
						i, got, want)
				}
			}
		})
	}
}

// TestParallelAllEntryPoints: parallel analysis from per-predicate
// all-any entry points (programs without main/0) matches the worklist.
func TestParallelAllEntryPoints(t *testing.T) {
	_, mod := buildMod(t, `
concatenate([X|L1], L2, [X|L3]) :- concatenate(L1, L2, L3).
concatenate([], L, L).
rev([], []).
rev([X|T], R) :- rev(T, RT), concatenate(RT, [X], R).
`)
	wlCfg := DefaultConfig()
	wlCfg.Strategy = StrategyWorklist
	wl, err := NewWith(mod, wlCfg).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	parCfg := DefaultConfig()
	parCfg.Strategy = StrategyParallel
	parCfg.Parallelism = 4
	par, err := NewWith(mod, parCfg).AnalyzeAll()
	if err != nil {
		t.Fatal(err)
	}
	if par.Marshal() != wl.Marshal() {
		t.Fatalf("AnalyzeAll mismatch:\n--- parallel ---\n%s--- worklist ---\n%s",
			par.Marshal(), wl.Marshal())
	}
}

// TestParallelSoundnessSample re-runs a soundness expectation under the
// parallel strategy.
func TestParallelSoundnessSample(t *testing.T) {
	p, _ := bench.ByName("qsort")
	tab, mod := buildMod(t, p.Source)
	res := analyzeStrategy(t, mod, StrategyParallel, 8)
	succ := res.SuccessFor(tab.Func("qsort", 3))
	if succ == nil {
		t.Fatal("qsort bottom under parallel strategy")
	}
}

// TestAnalyzeContextCanceled: a pre-canceled context stops the analysis
// with an error wrapping both ErrCanceled and context.Canceled, for
// every strategy.
func TestAnalyzeContextCanceled(t *testing.T) {
	p, _ := bench.ByName("zebra")
	_, mod := buildMod(t, p.Source)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{StrategyNaive, StrategyWorklist, StrategyParallel} {
		cfg := DefaultConfig()
		cfg.Strategy = strat
		a := NewWith(mod, cfg)
		_, err := a.AnalyzeAllContext(ctx)
		if err == nil {
			t.Fatalf("strategy %d: expected cancellation error", strat)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("strategy %d: error %v does not wrap ErrCanceled", strat, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %d: error %v does not wrap context.Canceled", strat, err)
		}
	}
}

// TestAnalyzeContextDeadline: an already-expired deadline aborts the
// fixpoint promptly (mid-run, via the periodic tick).
func TestAnalyzeContextDeadline(t *testing.T) {
	p, _ := bench.ByName("zebra")
	_, mod := buildMod(t, p.Source)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New(mod).AnalyzeAllContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v should wrap ErrCanceled and DeadlineExceeded", err)
	}
}

// TestConfigValidate: invalid configurations surface as errors from the
// analysis entry points instead of being clamped or panicking.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative depth", Config{Depth: -1}},
		{"negative parallelism", Config{Parallelism: -2, Strategy: StrategyParallel}},
		{"negative budget", Config{MaxSteps: -5}},
		{"bad strategy", Config{Strategy: Strategy(99)}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted %+v", c.name, c.cfg)
		}
	}
	_, mod := buildMod(t, "p(a).\n")
	cfg := DefaultConfig()
	cfg.Depth = -3
	if _, err := NewWith(mod, cfg).AnalyzeMain(); err == nil {
		t.Fatal("AnalyzeMain accepted a negative depth")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}
