package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file backs `benchtab -json`: a machine-readable benchmark report
// (BENCH_PR3.json at the repo root) so perf PRs can record before/after
// numbers in a diffable artifact instead of prose. The measurements are
// hand-rolled rather than testing.B-based — cmd/benchtab is a plain
// binary — but report the same quantities: ns/op, bytes/op, allocs/op,
// plus the extension-table traffic from the observability layer.

// BenchEntry is one measured (program, configuration) cell.
type BenchEntry struct {
	// Name is the workload, e.g. "wide_256" or a Table 1 benchmark.
	Name string `json:"name"`
	// Config names the analyzer configuration: "naive" (paper default)
	// or "worklist".
	Config string `json:"config"`
	// Iters is the number of timed runs behind the per-op averages.
	Iters int `json:"iters"`
	// NsPerOp, BytesPerOp and AllocsPerOp mirror testing.B semantics
	// (one op = one full AnalyzeMain on a pre-compiled module).
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// TableOps is the extension-table traffic of one run: lookups that
	// hit + lookups that missed + inserts + summary updates.
	TableOps int64 `json:"table_ops"`
	// TableSize is the converged table's entry count; Steps the abstract
	// instructions executed during the fixpoint. Both are
	// schedule-invariant, so reruns must reproduce them exactly.
	TableSize int   `json:"table_size"`
	Steps     int64 `json:"steps"`
	// Seed is the workload's generator seed (benchtab -seed); omitted
	// for the deterministic legacy workloads so seed-0 reports stay
	// byte-identical to earlier revisions.
	Seed int64 `json:"seed,omitempty"`
}

// BenchReport is the top-level JSON document.
type BenchReport struct {
	// Label identifies the measured revision, e.g. "PR3".
	Label  string `json:"label"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Quick is true when the report was produced with -quick (single
	// iteration; numbers are indicative, not stable).
	Quick bool `json:"quick"`
	// Seed is the generator seed used for the wide scaling workloads;
	// zero (omitted) means the fixed legacy programs.
	Seed    int64        `json:"seed,omitempty"`
	Entries []BenchEntry `json:"entries"`
	// Incremental holds the summary-cache cold-versus-warm measurements
	// (absent in reports from revisions before the incremental engine).
	Incremental []IncrementalEntry `json:"incremental,omitempty"`
	// Optimize holds the machine-runtime speedups from the gated
	// optimizer pipeline (absent before the pass pipeline existed).
	Optimize []OptimizeEntry `json:"optimize,omitempty"`
	// Fabric holds the distributed summary fabric measurements: a
	// one-edit re-analysis served over a peer daemon's store routes
	// versus a scratch run, plus the forced-outage identity check
	// (absent before the fabric existed).
	Fabric []FabricEntry `json:"fabric,omitempty"`
	// Specialize holds the specialized-transfer-stream ablation
	// (flatten / fuse / full; absent before the specializer
	// existed).
	Specialize []SpecializeEntry `json:"specialize,omitempty"`
	// Backward holds the demand-driven backward engine measurements:
	// cold versus store-warm demand queries and a one-edit re-query on
	// the wide workload (absent before the backward engine existed).
	Backward []BackwardEntry `json:"backward,omitempty"`
}

// worklistConfig is the engine configuration the JSON report measures
// on the wide programs — the rows EXPERIMENTS.md E13/E16 track.
func worklistConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Strategy = core.StrategyWorklist
	return cfg
}

// measureJSON times repeated AnalyzeMain runs of one compiled module
// and fills a BenchEntry. Allocation counters come from
// runtime.ReadMemStats deltas around the timed loop, which over-counts
// slightly versus testing.B (background allocation is attributed to
// us), so treat allocs/op as comparable between benchtab runs, not
// against `go test -bench` output.
func measureJSON(name, label string, mod *wam.Module, cfg core.Config, quick bool) (BenchEntry, error) {
	e := BenchEntry{Name: name, Config: label}

	// Untimed run: correctness check + schedule-invariant counters.
	res, err := core.NewWith(mod, cfg).AnalyzeMain()
	if err != nil {
		return e, fmt.Errorf("%s/%s: %w", name, label, err)
	}
	e.TableSize = res.TableSize
	e.Steps = res.Steps
	if res.Metrics != nil {
		m := res.Metrics
		e.TableOps = m.TableHits + m.TableMisses + m.TableInserts + m.TableUpdates
	}

	// Pick an iteration count from a single timed estimate.
	iters := 1
	if !quick {
		start := time.Now()
		if _, err := core.NewWith(mod, cfg).AnalyzeMain(); err != nil {
			return e, err
		}
		once := time.Since(start)
		const target = 2 * time.Second
		if once < target {
			iters = int(target / (once + 1))
		}
		if iters < 3 {
			iters = 3
		}
		if iters > 300 {
			iters = 300
		}
	}
	e.Iters = iters

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := core.NewWith(mod, cfg).AnalyzeMain(); err != nil {
			return e, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	e.NsPerOp = elapsed.Nanoseconds() / int64(iters)
	e.BytesPerOp = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iters)
	e.AllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / int64(iters)
	return e, nil
}

func compileBench(p bench.Program) (*wam.Module, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, p.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.Name, err)
	}
	mod, err := compiler.Compile(tab, prog)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.Name, err)
	}
	return mod, nil
}

// MeasureBenchJSON produces the benchmark report: the wide_256/wide_512
// scaling programs under the worklist, plus the
// paper's Table 1 suite under the default (naive) configuration.
// progress, when non-nil, receives one line per cell. seed perturbs
// the wide workloads via bench.WideProgramSeeded; 0 keeps the fixed
// legacy programs (the committed BENCH_PR3.json baseline).
// The seed is echoed in both the progress lines and the report so any
// failure or anomaly on a randomized workload can be reproduced.
func MeasureBenchJSON(label string, quick bool, seed int64, progress io.Writer) (*BenchReport, error) {
	rep := &BenchReport{
		Label:  label,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Quick:  quick,
		Seed:   seed,
	}
	say := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	for _, fam := range []int{256, 512} {
		p := bench.WideProgramSeeded(fam, seed)
		mod, err := compileBench(p)
		if err != nil {
			return nil, err
		}
		say("  %s/worklist (seed=%d)...\n", p.Name, p.Seed)
		e, err := measureJSON(p.Name, "worklist", mod, worklistConfig(), quick)
		if err != nil {
			return nil, err
		}
		e.Seed = p.Seed
		rep.Entries = append(rep.Entries, e)
	}
	for _, p := range bench.Programs {
		mod, err := compileBench(p)
		if err != nil {
			return nil, err
		}
		say("  %s/naive...\n", p.Name)
		e, err := measureJSON(p.Name, "naive", mod, core.DefaultConfig(), quick)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, e)
	}
	// Incremental cold-vs-warm is only meaningful on the deterministic
	// workload: the committed report tracks its speedup across revisions.
	if seed == 0 {
		ie, err := MeasureIncremental(512, quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Incremental = append(rep.Incremental, *ie)
		oe, err := MeasureOptimizeJSON(quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Optimize = oe
		fe, err := MeasureFabric(512, quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Fabric = append(rep.Fabric, *fe)
		se, err := MeasureSpecialize(quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Specialize = se
		be, err := MeasureBackward(512, quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Backward = append(rep.Backward, *be)
	}
	return rep, nil
}

// WriteBenchJSON serializes the report with stable indentation (the
// file is committed; diffs should be line-oriented).
func WriteBenchJSON(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
