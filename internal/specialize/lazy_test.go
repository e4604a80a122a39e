package specialize_test

import (
	"fmt"
	"sync"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/specialize"
)

// TestConcurrentLazyTranslation shares one freshly built Program, none
// of whose components is translated yet, between concurrent analyses
// under both strategies. Each must match an analysis over a private
// Program in Marshal bytes and steps, and the shared Program must end
// with the same streams as a fully translated private one. Run it under
// -race: the analyses race to translate the same components.
func TestConcurrentLazyTranslation(t *testing.T) {
	progs := append([]bench.Program{bench.WideProgramSeeded(16, 1)}, bench.Programs[:4]...)
	opts := specialize.Options{Fuse: true, PreIntern: true}
	strategies := []core.Strategy{core.StrategyWorklist, core.StrategyNaive}
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			tab, mod := buildMod(t, p.Source)
			want := make([]string, len(strategies))
			for i, strat := range strategies {
				res := analyzeWith(t, mod, strat, buildSpec(mod, opts))
				want[i] = fmt.Sprintf("%d\n%s", res.Steps, res.Marshal())
			}
			shared := buildSpec(mod, opts)
			for _, cs := range shared.Comps {
				if cs.Clauses != nil {
					t.Fatalf("Build translated component %d up front", cs.Index)
				}
			}
			const rounds = 3
			got := make([]string, rounds*len(strategies))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for slot := range got {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					<-start
					cfg := core.DefaultConfig()
					cfg.Strategy = strategies[slot%len(strategies)]
					cfg.Spec = shared
					res, err := core.NewWith(mod, cfg).AnalyzeAll()
					if err != nil {
						got[slot] = "error: " + err.Error()
						return
					}
					got[slot] = fmt.Sprintf("%d\n%s", res.Steps, res.Marshal())
				}(slot)
			}
			close(start)
			wg.Wait()
			for slot, g := range got {
				if g != want[slot%len(strategies)] {
					t.Errorf("analysis %d over the shared Program differs from a private one", slot)
				}
			}
			if specialize.Disasm(tab, shared) != specialize.Disasm(tab, buildSpec(mod, opts)) {
				t.Error("concurrently translated streams differ from a private translation")
			}
		})
	}
}
