package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"

	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/parser"
	"awam/internal/term"
	"awam/internal/wam"
)

// This file backs cmd/benchtab: it measures the sections one -table
// names into a BenchReport, which benchtab renders as text or, with
// -json, writes as a machine-readable report so perf changes can record
// before/after numbers in a diffable artifact.

// Tables lists the sections benchtab -table accepts; "all" is every
// other one.
var Tables = []string{"1", "2", "ablation", "observe", "optimize", "specialize", "backward", "all"}

// BenchReport is the top-level JSON document.
type BenchReport struct {
	// Label identifies the measured revision, e.g. "PR3"; Table the
	// section selection (one of Tables).
	Label      string `json:"label"`
	Table      string `json:"table"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Quick is true when the report was produced with -quick; Samples
	// and FloorNs are the sample plan it selected.
	Quick   bool  `json:"quick"`
	Samples int   `json:"samples"`
	FloorNs int64 `json:"floor_ns"`
	// Table1 holds the Table 1 rows (also the data of Table 2 and of
	// observe), Table1Average their average speed-up.
	Table1        []*Metrics     `json:"table1,omitempty"`
	Table1Average Dist           `json:"table1_average_speedup"`
	Table2        []ConfigRatios `json:"table2,omitempty"`
	Ablation      []AblationRow  `json:"ablation,omitempty"`
	// Optimize holds the machine-runtime speedups from the gated
	// optimizer pipeline.
	Optimize []OptimizeEntry `json:"optimize,omitempty"`
	// Specialize holds the specialized-transfer-stream ablation
	// (flatten / fuse / full).
	Specialize []SpecializeEntry `json:"specialize,omitempty"`
	// Backward holds the demand-driven backward engine measurements:
	// cold versus store-warm demand queries and a one-edit re-query on
	// the wide workload.
	Backward []BackwardEntry `json:"backward,omitempty"`
}

func (r *BenchReport) has(section string) bool { return r.Table == "all" || r.Table == section }

// MeasureReport measures the sections table selects. progress, when
// non-nil, receives one line per measured unit.
func MeasureReport(label, table string, quick bool, progress io.Writer) (*BenchReport, error) {
	if !slices.Contains(Tables, table) {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	n, floor := plan(quick)
	rep := &BenchReport{
		Label:      label,
		Table:      table,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Samples:    n,
		FloorNs:    floor.Nanoseconds(),
	}
	say := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	opts := DefaultMeasureOptions()
	opts.Quick = quick
	var err error
	if rep.has("1") || rep.has("2") || rep.has("observe") {
		say("  table 1...\n")
		if rep.Table1, err = MeasureAll(opts); err != nil {
			return nil, err
		}
		rep.Table1Average = AverageSpeedup(rep.Table1)
	}
	if rep.has("2") {
		say("  table 2...\n")
		if rep.Table2, err = MeasureConfigs(opts, rep.Table1); err != nil {
			return nil, err
		}
	}
	if rep.has("ablation") {
		say("  ablation...\n")
		if rep.Ablation, err = MeasureAblation(opts, []int{2, 4, 8}); err != nil {
			return nil, err
		}
	}
	if rep.has("optimize") {
		if rep.Optimize, err = MeasureOptimize(quick, progress); err != nil {
			return nil, err
		}
	}
	if rep.has("specialize") {
		if rep.Specialize, err = MeasureSpecialize(quick, progress); err != nil {
			return nil, err
		}
	}
	if rep.has("backward") {
		e, err := MeasureBackward(512, quick, progress)
		if err != nil {
			return nil, err
		}
		rep.Backward = []BackwardEntry{*e}
	}
	return rep, nil
}

// WriteReport renders the report's sections as text tables.
func WriteReport(w io.Writer, rep *BenchReport) {
	sep := ""
	section := func(name string, write func()) {
		if rep.has(name) {
			fmt.Fprint(w, sep)
			write()
			sep = "\n"
		}
	}
	section("1", func() { WriteTable1(w, rep.Table1) })
	section("2", func() { WriteTable2(w, rep.Table1, rep.Table2) })
	section("ablation", func() { WriteAblation(w, rep.Ablation) })
	section("observe", func() { WriteObservability(w, rep.Table1) })
	section("optimize", func() { WriteOptimizeTable(w, rep.Optimize) })
	section("specialize", func() { WriteSpecializeTable(w, rep.Specialize) })
	section("backward", func() { WriteBackwardTable(w, rep.Backward) })
}

// WriteBenchJSON serializes the report with stable indentation (the
// file is committed; diffs should be line-oriented).
func WriteBenchJSON(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
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
