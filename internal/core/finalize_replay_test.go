package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/fuzz"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// replayCorpus returns the programs TestFinalizeReplayMatchesExecution
// presents: the benchmark suites (Table 1 and extended), the confluence
// counterexample, a seeded wide program, and both committed fuzz seed
// corpora (generator seeds and raw sources) under internal/fuzz.
func replayCorpus(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"wide_64_seed1": bench.WideProgramSeeded(64, 1).Source,
		"confluence_regression": `qsort([X|L], R, R0) :- partition(L, X, b1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
qsort([], R, R).
partition([X|L], Y, L1, [X|L2]).
partition([], _G0, [], []).
`,
	}
	for _, p := range bench.AllPrograms() {
		srcs[p.Name] = p.Source
	}
	corpus := filepath.Join("..", "fuzz", "testdata", "fuzz")
	for _, dir := range []string{"FuzzSoundness", "FuzzSoundnessSource"} {
		files, err := filepath.Glob(filepath.Join(corpus, dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("fuzz corpus %s missing: %v", dir, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 2 || lines[0] != "go test fuzz v1" {
				t.Fatalf("%s: not a fuzz corpus file", path)
			}
			name := dir + "/" + filepath.Base(path)
			if dir == "FuzzSoundness" {
				seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				srcs[name] = fuzz.Generate(seed, fuzz.DefaultGenConfig()).Source
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			srcs[name] = src
		}
	}
	return srcs
}

// presentation is everything finalize publishes, in order.
type presentation struct {
	Entries   []string
	TableSize int
	Warnings  []string
}

func present(tab *term.Tab, res *core.Result) presentation {
	p := presentation{TableSize: res.TableSize, Warnings: res.Warnings}
	for _, e := range res.Entries {
		succ := "bottom"
		if e.Succ != nil {
			succ = e.Succ.Key()
		}
		consults := make([]string, len(e.Consults))
		for i, c := range e.Consults {
			consults[i] = c.Key()
		}
		p.Entries = append(p.Entries, fmt.Sprintf("%s -> %s consults=%v lookups=%d",
			e.CP.Key(), succ, consults, e.Lookups))
	}
	return p
}

// TestFinalizeReplayMatchesExecution presents one converged naive or
// worklist table three ways — from the exploration records, with the
// records dropped so every entry runs its clauses, and with one recorded
// summary tampered so the replay mismatches at that read and falls back
// mid-prefix — and requires the same entries (calling pattern, summary,
// consultations in order, lookups), table size and warnings from all
// three. It also pins where the entries came from: on this corpus every
// entry replays, and a tampered read re-runs exactly its entry.
func TestFinalizeReplayMatchesExecution(t *testing.T) {
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
		for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyWorklist} {
			t.Run(fmt.Sprintf("%s/%d", name, strat), func(t *testing.T) {
				checkReplay(t, tab, mod, strat)
			})
		}
	}
}

func checkReplay(t *testing.T, tab *term.Tab, mod *wam.Module, strat core.Strategy) {
	cfg := core.DefaultConfig()
	cfg.Strategy = strat
	cfg.MaxSteps = 50_000_000
	probe, err := core.NewReplayProbe(mod, cfg)
	if err != nil {
		t.Skipf("fixpoint: %v", err)
	}
	base, err := probe.Present(true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := present(tab, base)
	m := base.Metrics
	if m.FinalizeExecuted != 0 || m.FinalizeReplayed != int64(base.TableSize) {
		t.Errorf("replayed %d, executed %d of %d entries; want every entry replayed",
			m.FinalizeReplayed, m.FinalizeExecuted, base.TableSize)
	}

	executed, err := probe.Present(false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := present(tab, executed); !reflect.DeepEqual(got, want) {
		t.Fatalf("executing every entry differs from the replay:\n got %+v\nwant %+v", got, want)
	}
	if em := executed.Metrics; em.FinalizeReplayed != 0 || em.FinalizeExecuted != m.FinalizeReplayed+m.FinalizeExecuted {
		t.Errorf("without records: replayed %d, executed %d", em.FinalizeReplayed, em.FinalizeExecuted)
	}

	// Tamper at every read position of a sample of entries, spread over
	// the presentation order.
	var sample []*core.Entry
	for _, e := range base.Entries {
		if probe.RecordedReads(e.ID) > 0 {
			sample = append(sample, e)
		}
	}
	const maxSample = 6
	if len(sample) > maxSample {
		step := len(sample) / maxSample
		thinned := sample[:0]
		for i := 0; i < len(sample) && len(thinned) < maxSample; i += step {
			thinned = append(thinned, sample[i])
		}
		sample = thinned
	}
	for _, e := range sample {
		for read := 0; read < probe.RecordedReads(e.ID); read++ {
			res, err := probe.Present(true, e.ID, read)
			if err != nil {
				t.Fatal(err)
			}
			if got := present(tab, res); !reflect.DeepEqual(got, want) {
				t.Fatalf("fallback at read %d of %s differs from the replay:\n got %+v\nwant %+v",
					read, e.CP.String(tab), got, want)
			}
			if tm := res.Metrics; tm.FinalizeExecuted != m.FinalizeExecuted+1 || tm.FinalizeReplayed != m.FinalizeReplayed-1 {
				t.Fatalf("tampered read %d of %s: replayed %d, executed %d; want %d, %d",
					read, e.CP.String(tab), tm.FinalizeReplayed, tm.FinalizeExecuted,
					m.FinalizeReplayed-1, m.FinalizeExecuted+1)
			}
		}
	}
}
