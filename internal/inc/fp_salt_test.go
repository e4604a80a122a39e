package inc

import (
	"context"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
)

// TestFormatSaltIsolation pins the fingerprint schema salt (fpFormat)
// the way TestEngineSpecIsolation pins the specializer salt: records
// written under one format generation must be a cache miss for the
// other, in both directions, while each generation stays fully warm
// against its own records. The v2→v3 bump exists because the
// schedule-confluent widening changed computed summaries; a shared
// store serving a pre-closure record to a post-closure analyzer (or
// vice versa) would silently mix semantics.
func TestFormatSaltIsolation(t *testing.T) {
	const oldFormat = "awam-scc-fp 2"
	prog, _ := bench.ByName("qsort")
	cfg := core.DefaultConfig()

	// Current generation: cold run populates, warm run fully reuses.
	e := NewEngine(nil)
	_, mod := mustCompile(t, prog.Source)
	cold, err := e.AnalyzeAll(context.Background(), mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmSCCs != 0 {
		t.Fatalf("cold run reports %d warm SCCs", cold.WarmSCCs)
	}
	_, mod2 := mustCompile(t, prog.Source)
	warm, err := e.AnalyzeAll(context.Background(), mod2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmSCCs != len(warm.Plan.SCCs) {
		t.Fatalf("warm run served %d/%d components", warm.WarmSCCs, len(warm.Plan.SCCs))
	}

	// Direction 1: current-format records must not satisfy a lookup
	// keyed under the previous format.
	_, mod3 := mustCompile(t, prog.Source)
	oldPlan := NewCondensation(mod3).Fingerprint(oldFormat, configContext(cfg), nil, nil)
	if served := e.loadWarm(mod3.Tab, oldPlan); len(served) != 0 {
		t.Fatalf("old-format lookup served %d components from current-format records", len(served))
	}

	// Direction 2: a store holding only old-format records must not
	// satisfy a current lookup — but still serves its own generation.
	e2 := NewEngine(nil)
	cfgWL := cfg
	cfgWL.Strategy = core.StrategyWorklist
	res, err := core.NewWith(mod3, cfgWL).AnalyzeAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e2.storeRecords(oldPlan, mod3.Tab, nil, res, nil)
	if len(e2.loadWarm(mod3.Tab, oldPlan)) == 0 {
		t.Fatal("old-format store does not even serve its own generation")
	}
	if served := e2.loadWarm(mod3.Tab, NewPlan(mod3, configContext(cfg))); len(served) != 0 {
		t.Fatalf("current lookup served %d components from old-format records", len(served))
	}
}
