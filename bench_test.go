package awam

import (
	"fmt"
	"testing"
	"time"

	"awam/internal/baseline"
	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/machine"
	"awam/internal/optimize"
	"awam/internal/parser"
	"awam/internal/plmeta"
	"awam/internal/term"
	"awam/internal/transrun"
	"awam/internal/wam"
)

// The benchmarks below regenerate the measured columns of the paper's
// evaluation:
//
//	Table 1 "Ours"     -> BenchmarkAnalyze/*
//	Table 1 "Aquarius" -> BenchmarkHostedAnalyze/*
//	Table 1 "PLM"      -> BenchmarkCompile/*
//	Table 2 sweep      -> BenchmarkDepth/*, BenchmarkTableRepr/*,
//	                      BenchmarkIndexing/*, BenchmarkMetaInterpreter/*
//	Figure 1 left path -> BenchmarkConcreteRun/*
//	E11 payoff         -> BenchmarkOptimizedRun/*
//
// cmd/benchtab renders the same measurements as the paper's tables.

type built struct {
	tab  *term.Tab
	prog *term.Program
	mod  *wam.Module
}

func buildBench(b *testing.B, name string) built {
	b.Helper()
	p, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, p.Source)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		b.Fatal(err)
	}
	return built{tab: tab, prog: prog, mod: mod}
}

// BenchmarkAnalyze is Table 1's "Ours" column: the compiled abstract-WAM
// analysis, full fixpoint, per benchmark.
func BenchmarkAnalyze(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(env.mod).AnalyzeMain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHostedAnalyze is Table 1's "Aquarius" column stand-in: a mode
// analyzer written in Prolog executing on the concrete WAM.
func BenchmarkHostedAnalyze(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			runner, err := plmeta.NewRunner(env.tab, env.prog)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetaInterpreter measures the Go meta-interpreting analyzer
// (same abstract domain as the compiled one).
func BenchmarkMetaInterpreter(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := baseline.New(env.tab, env.prog).AnalyzeMain(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile is Table 1's "PLM" column stand-in: Prolog -> WAM
// compilation time, parse excluded. The wide_512 case is the program the
// daemon compiles on every program-cache miss of a backward request; its
// allocation figures track the code array's size.
func BenchmarkCompile(b *testing.B) {
	run := func(b *testing.B, env built) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := compiler.Compile(env.tab, env.prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) { run(b, buildBench(b, name)) })
	}
	b.Run("wide_512", func(b *testing.B) {
		run(b, buildProgram(b, bench.WideProgramSeeded(512, 1)))
	})
}

// BenchmarkParse measures reading Prolog source into a fresh symbol
// table, for the Table 1 suite and wide_512. Every atom the reader meets
// goes through Tab.Intern, so this guards the cost of the table's lock.
func BenchmarkParse(b *testing.B) {
	run := func(b *testing.B, src string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parser.ParseProgram(term.NewTab(), src); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, name := range bench.Names() {
		p, _ := bench.ByName(name)
		b.Run(name, func(b *testing.B) { run(b, p.Source) })
	}
	b.Run("wide_512", func(b *testing.B) { run(b, bench.WideProgramSeeded(512, 1).Source) })
}

// BenchmarkConcreteRun executes each benchmark's main/0 on the concrete
// WAM (Figure 1's compiled-execution path).
func BenchmarkConcreteRun(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := machine.New(env.mod)
				ok, err := m.RunMain()
				if err != nil || !ok {
					b.Fatalf("run: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkOptimizedRun executes the analysis-specialized modules; the
// delta against BenchmarkConcreteRun is the E11 payoff.
func BenchmarkOptimizedRun(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			res, err := core.New(env.mod).AnalyzeMain()
			if err != nil {
				b.Fatal(err)
			}
			opt, _ := optimize.Specialize(env.mod, res)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := machine.New(opt)
				ok, err := m.RunMain()
				if err != nil || !ok {
					b.Fatalf("run: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkDepth sweeps the term-depth restriction k (experiment E9 /
// the Table 2 configuration sweep) on the structurally richest
// benchmarks.
func BenchmarkDepth(b *testing.B) {
	for _, name := range []string{"qsort", "serialise", "zebra"} {
		for _, k := range []int{2, 4, 8} {
			name, k := name, k
			b.Run(benchLabel(name, "k", k), func(b *testing.B) {
				env := buildBench(b, name)
				cfg := core.Config{Depth: k, Indexing: true}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.NewWith(env.mod, cfg).AnalyzeMain(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIndexing compares indexing-aware clause selection with
// explore-all (Section 5's indexing discussion).
func BenchmarkIndexing(b *testing.B) {
	for _, name := range []string{"qsort", "query", "serialise"} {
		for _, idx := range []bool{true, false} {
			name, idx := name, idx
			label := name + "/indexed"
			if !idx {
				label = name + "/all-clauses"
			}
			b.Run(label, func(b *testing.B) {
				env := buildBench(b, name)
				cfg := core.Config{Depth: 4, Indexing: idx}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.NewWith(env.mod, cfg).AnalyzeMain(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchLabel(name, param string, v int) string {
	return name + "/" + param + "=" + string(rune('0'+v))
}

// BenchmarkStrategy compares the paper's naive fixpoint iteration with
// the dependency-tracking worklist (Section 6's future work, implemented
// in internal/core/worklist.go), on three Table 1 programs and on the
// wide_512 reference program. Besides time and allocations per
// analysis it reports the fixpoint (exec_ms) and finalize (fin_ms)
// shares from Result.Metrics and the abstract instructions executed
// (steps/op, the paper's Exec).
func BenchmarkStrategy(b *testing.B) {
	var programs []bench.Program
	for _, name := range []string{"qsort", "zebra", "serialise"} {
		p, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		programs = append(programs, p)
	}
	wide := bench.WideProgramSeeded(512, 1)
	wide.Name = "wide_512"
	programs = append(programs, wide)
	for _, p := range programs {
		for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyWorklist} {
			p, strat := p, strat
			label := p.Name + "/naive"
			if strat == core.StrategyWorklist {
				label = p.Name + "/worklist"
			}
			b.Run(label, func(b *testing.B) {
				env := buildProgram(b, p)
				cfg := core.DefaultConfig()
				cfg.Strategy = strat
				b.ReportAllocs()
				b.ResetTimer()
				var exec, fin time.Duration
				var steps int64
				for i := 0; i < b.N; i++ {
					res, err := core.NewWith(env.mod, cfg).AnalyzeMain()
					if err != nil {
						b.Fatal(err)
					}
					exec += res.Metrics.ExecuteTime
					fin += res.Metrics.FinalizeTime
					steps += res.Steps
				}
				b.ReportMetric(float64(exec)/float64(time.Millisecond)/float64(b.N), "exec_ms")
				b.ReportMetric(float64(fin)/float64(time.Millisecond)/float64(b.N), "fin_ms")
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}

func buildProgram(b *testing.B, p bench.Program) built {
	b.Helper()
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, p.Source)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		b.Fatal(err)
	}
	return built{tab: tab, prog: prog, mod: mod}
}

// BenchmarkTransformedAnalyze measures the paper's transforming
// approach: the analysis partially evaluated into a Prolog program,
// executed on the concrete WAM (internal/transrun).
func BenchmarkTransformedAnalyze(b *testing.B) {
	for _, name := range bench.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			env := buildBench(b, name)
			runner, err := transrun.NewRunner(env.tab, env.prog)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEditWarmFresh is the in-process edit_warm op: a store primed
// with wide_512, then each op loads the base plus one distinct neutral
// clause as a new program (its own symbol table), analyzes it through
// the store and marshals the result.
func BenchmarkEditWarmFresh(b *testing.B) {
	src := bench.WideProgramSeeded(512, 1).Source
	st, err := NewStore()
	if err != nil {
		b.Fatal(err)
	}
	op := func(i int) {
		sys, err := Load(src + fmt.Sprintf("p%d_use(mutant_%d).\n", i%512, i))
		if err != nil {
			b.Fatal(err)
		}
		a, err := sys.Analyze(WithSummaryCache(st))
		if err != nil {
			b.Fatal(err)
		}
		a.Marshal()
	}
	op(0)
	op(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i + 2)
	}
}

// BenchmarkWideCold is the in-process wide_cold op: load the seeded
// wide_512 program, analyze it under the worklist fixpoint without a
// store, and marshal the result.
func BenchmarkWideCold(b *testing.B) {
	src := bench.WideProgramSeeded(512, 1).Source
	op := func() {
		sys, err := Load(src)
		if err != nil {
			b.Fatal(err)
		}
		a, err := sys.Analyze(WithStrategy(Worklist))
		if err != nil {
			b.Fatal(err)
		}
		a.Marshal()
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkTable1Pass is one pass of the in-process table1_batch op:
// load, analyze with default options and marshal each of the paper's
// Table 1 programs once.
func BenchmarkTable1Pass(b *testing.B) {
	pass := func() {
		for _, p := range bench.Programs {
			sys, err := Load(p.Source)
			if err != nil {
				b.Fatal(err)
			}
			a, err := sys.Analyze()
			if err != nil {
				b.Fatal(err)
			}
			a.Marshal()
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
