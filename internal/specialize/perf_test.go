package specialize_test

import (
	"os"
	"testing"
	"time"

	"awam/internal/bench"
	"awam/internal/core"
	"awam/internal/specialize"
)

// TestPerfSmoke is the CI perf gate: on wide_256 under the worklist,
// the fully specialized program must not be slower than the plain
// stream (Config.Spec nil). Timing on shared runners is noisy, so each
// side gets the best of three runs and the specialized side a small
// grace factor — the gate exists to catch a specialization that has
// stopped paying for itself (a real regression shows up as 2x+, not
// 10%). Gated behind AWAM_PERF_SMOKE=1 so ordinary `go test ./...`
// stays timing-free.
func TestPerfSmoke(t *testing.T) {
	if os.Getenv("AWAM_PERF_SMOKE") == "" {
		t.Skip("set AWAM_PERF_SMOKE=1 to run the perf smoke gate")
	}
	_, mod := buildMod(t, bench.WideProgram(256).Source)
	spec := buildSpec(mod, specialize.Options{Fuse: true, PreIntern: true})

	bestOf := func(spec *specialize.Program) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			cfg := core.DefaultConfig()
			cfg.Strategy = core.StrategyWorklist
			cfg.Spec = spec
			start := time.Now()
			if _, err := core.NewWith(mod, cfg).AnalyzeMain(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	plain := bestOf(nil)
	specialized := bestOf(spec)
	t.Logf("wide_256 worklist: plain %v, specialized %v (%.2fx)",
		plain, specialized, float64(plain)/float64(specialized))
	if float64(specialized) > float64(plain)*1.10 {
		t.Fatalf("specialized program slower than the plain stream on wide_256: %v vs %v", specialized, plain)
	}
}

// BenchmarkBuild measures specialize.Build alone — static profile,
// clause numbering and fusion selection included, condensation and the
// streams' translation on first use excluded — on growing wide
// programs, so its scaling can be read off ns/op and allocs/op:
//
//	go test -run NONE -bench BenchmarkBuild -benchmem ./internal/specialize
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		prog := bench.WideProgram(n)
		b.Run(prog.Name, func(b *testing.B) {
			_, mod := buildMod(b, prog.Source)
			comps := components(mod)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specialize.Build(mod, comps, specialize.StaticProfile(mod),
					specialize.Options{Fuse: true, PreIntern: true})
			}
		})
	}
}
