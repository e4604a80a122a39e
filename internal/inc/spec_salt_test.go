package inc

import (
	"context"
	"testing"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/specialize"
	"awam/internal/term"
	"awam/internal/wam"
)

// specFor builds the specialized transfer program for mod the way the
// facade does.
func specFor(mod *wam.Module, opts specialize.Options) *specialize.Program {
	plan := Condense(mod, core.Config{})
	comps := make([][]term.Functor, len(plan.SCCs))
	for i, scc := range plan.SCCs {
		comps[i] = scc.Members
	}
	return specialize.Build(mod, comps, specialize.StaticProfile(mod), opts)
}

// TestEngineSpecIsolation pins the fingerprint salting of specialized
// runs: summaries recorded by plain-stream runs (Spec nil) must be a cache miss
// for a specialized run and vice versa (a specializer bug must never be
// masked by plain-stream records), and two specializer generations with
// different fusion options must not share records either — while every
// engine generation still reuses its own records fully, and all of them
// produce byte-identical results.
func TestEngineSpecIsolation(t *testing.T) {
	prog, _ := bench.ByName("qsort")
	e := NewEngine(nil)

	run := func(spec *specialize.Program) *Result {
		t.Helper()
		_, mod := mustCompile(t, prog.Source)
		cfg := core.DefaultConfig()
		if spec != nil {
			// Rebuild for this module: the specialization is tied to the
			// module's code addresses and symbol table.
			cfg.Spec = specFor(mod, spec.Opts)
		}
		res, err := e.AnalyzeAll(context.Background(), mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	full := specFor(mustCompileMod(t, prog.Source), specialize.Options{Fuse: true, PreIntern: true})
	flat := specFor(mustCompileMod(t, prog.Source), specialize.Options{})

	plain := run(nil)
	if plain.WarmSCCs != 0 {
		t.Fatalf("cold plain run reports %d warm SCCs", plain.WarmSCCs)
	}

	// Plain-stream records must not satisfy a specialized run.
	spec1 := run(full)
	if spec1.WarmSCCs != 0 {
		t.Fatalf("specialized run reused %d plain-stream components", spec1.WarmSCCs)
	}
	if spec1.Marshal() != plain.Marshal() {
		t.Fatal("specialized engine result differs from plain")
	}

	// A same-generation re-run is fully warm.
	spec2 := run(full)
	if spec2.WarmSCCs != len(spec2.Plan.SCCs) {
		t.Fatalf("specialized re-run served %d/%d components", spec2.WarmSCCs, len(spec2.Plan.SCCs))
	}

	// A different fusion configuration is a different generation.
	specFlat := run(flat)
	if specFlat.WarmSCCs != 0 {
		t.Fatalf("flatten-only run reused %d full-specialization components", specFlat.WarmSCCs)
	}
	if specFlat.Marshal() != plain.Marshal() {
		t.Fatal("flatten-only engine result differs from plain")
	}

	// And specialized records must not satisfy a plain run: the
	// plain generation's own records are still there, so it is warm —
	// but only via its own salt.
	plain2 := run(nil)
	if plain2.WarmSCCs != len(plain2.Plan.SCCs) {
		t.Fatalf("plain re-run served %d/%d components", plain2.WarmSCCs, len(plain2.Plan.SCCs))
	}
	if plain2.Marshal() != plain.Marshal() {
		t.Fatal("plain re-run result drifted")
	}

	// Reverse direction, on a store that has only specialized records:
	// a plain run must miss them all.
	e2 := NewEngine(nil)
	_, mod := mustCompile(t, prog.Source)
	cfg := core.DefaultConfig()
	cfg.Spec = specFor(mod, specialize.Options{Fuse: true, PreIntern: true})
	if _, err := e2.AnalyzeAll(context.Background(), mod, cfg); err != nil {
		t.Fatal(err)
	}
	_, mod2 := mustCompile(t, prog.Source)
	crossPlain, err := e2.AnalyzeAll(context.Background(), mod2, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if crossPlain.WarmSCCs != 0 {
		t.Fatalf("plain run reused %d specialized-engine components", crossPlain.WarmSCCs)
	}
}

// mustCompileMod is mustCompile returning only the module.
func mustCompileMod(t *testing.T, src string) *wam.Module {
	t.Helper()
	_, mod := mustCompile(t, src)
	return mod
}
