package core_test

import (
	"fmt"
	"strings"
	"testing"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
)

// TestHeapPathMatchesTree holds the heap path of term abstraction to
// the tree path (abstractArgs, then Intern) on every abstraction it
// takes: the Table 1 and extended suites, a seeded wide program and the
// committed fuzz corpora, under both fixpoint strategies at depths 1,
// 2, 3, 4 and 6 (the uniform-list closure differs at k=2 and at k≥3).
// Each corpus must take both paths at each depth, so neither goes
// unchecked.
func TestHeapPathMatchesTree(t *testing.T) {
	table1 := map[string]bool{}
	for _, p := range bench.Programs {
		table1[p.Name] = true
	}
	// The extended group also holds the confluence counterexample.
	corpusOf := func(name string) string {
		switch {
		case table1[name]:
			return "table1"
		case strings.HasPrefix(name, "Fuzz"):
			return "fuzz"
		case strings.HasPrefix(name, "wide_"):
			return "wide"
		}
		return "extended"
	}
	counts := map[string]*core.PathCounts{}
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
		for _, k := range []int{1, 2, 3, 4, 6} {
			for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyWorklist} {
				cfg := core.DefaultConfig()
				cfg.Depth = k
				cfg.Strategy = strat
				_, n, err := core.AnalyzeHeapChecked(mod, cfg)
				if err != nil {
					t.Fatalf("%s at k=%d, strategy %d: %v", name, k, strat, err)
				}
				key := fmt.Sprintf("%s at k=%d", corpusOf(name), k)
				if counts[key] == nil {
					counts[key] = &core.PathCounts{}
				}
				counts[key].Heap += n.Heap
				counts[key].Tree += n.Tree
			}
		}
	}
	for _, corpus := range []string{"table1", "extended", "wide", "fuzz"} {
		for _, k := range []int{1, 2, 3, 4, 6} {
			key := fmt.Sprintf("%s at k=%d", corpus, k)
			n := counts[key]
			if n == nil || n.Heap == 0 || n.Tree == 0 {
				t.Errorf("%s: abstractions by path %+v, want both paths taken", key, n)
				continue
			}
			t.Logf("%s: %d heap, %d tree", key, n.Heap, n.Tree)
		}
	}
}
