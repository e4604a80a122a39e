// Package harness measures the analyzers over the benchmark suite and
// renders the paper's evaluation tables: Table 1 (analyzer efficiency),
// Table 2 (speed ratios; the 1992 hardware sweep is replaced by an
// analyzer-configuration sweep, see DESIGN.md) and the term-depth
// ablation.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"awam/internal/baseline"
	"awam/internal/bench"
	"awam/internal/compiler"
	"awam/internal/core"
	"awam/internal/domain"
	"awam/internal/parser"
	"awam/internal/plmeta"
	"awam/internal/term"
	"awam/internal/transrun"
)

// isGroundArg reports whether an inferred argument type is provably
// ground — the ablation's precision proxy.
func isGroundArg(tab *term.Tab, a *domain.Term) bool {
	return domain.Leq(tab, a, domain.MkLeaf(domain.Ground))
}

// Metrics is one measured row of the evaluation tables.
type Metrics struct {
	Name  string
	Args  int // total argument places (paper's "Args")
	Preds int // defined predicates (paper's "Preds")

	Size int   // static WAM code size in instructions
	Exec int64 // abstract WAM instructions executed during analysis

	TableSize  int
	Iterations int

	// Extension-table traffic and peak working set during the compiled
	// analysis, from the observability layer (core.Result.Metrics).
	TableHits    int64
	TableMisses  int64
	TableUpdates int64
	HeapCells    int

	CompileMS float64 // Prolog -> WAM compile time ("PLM" column stand-in)
	OursMS    float64 // compiled analyzer (internal/core)
	HostedMS  float64 // Prolog-hosted analyzer on the WAM ("Aquarius" stand-in)
	MetaGoMS  float64 // Go meta-interpreting analyzer (internal/baseline)
	// TransformedMS is the paper's "transforming approach": the analysis
	// partially evaluated into a Prolog program, run on the WAM.
	TransformedMS float64
}

// SpeedupHosted is the Table 1 speed-up factor: Prolog-hosted analysis
// time over compiled analysis time.
func (m *Metrics) SpeedupHosted() float64 {
	if m.OursMS == 0 {
		return 0
	}
	return m.HostedMS / m.OursMS
}

// SpeedupMetaGo compares against the Go meta-interpreter.
func (m *Metrics) SpeedupMetaGo() float64 {
	if m.OursMS == 0 {
		return 0
	}
	return m.MetaGoMS / m.OursMS
}

// MeasureOptions tune the harness.
type MeasureOptions struct {
	// MinSampleTime is the per-measurement budget; runs repeat until it
	// is reached (the paper averaged 100-1000 iterations similarly).
	MinSampleTime time.Duration
	// CoreConfig configures the compiled analyzer.
	CoreConfig core.Config
	// SkipHosted skips the (slowest) Prolog-hosted baseline.
	SkipHosted bool
	// SkipMetaGo skips the Go meta-interpreter baseline.
	SkipMetaGo bool
}

// DefaultMeasureOptions uses the paper's analyzer configuration.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{
		MinSampleTime: 50 * time.Millisecond,
		CoreConfig:    core.DefaultConfig(),
	}
}

// timeIt measures f's time per run by repeating until the sample budget
// is spent, returning milliseconds per run.
func timeIt(min time.Duration, f func() error) (float64, error) {
	// Warm-up and single-run estimate.
	start := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	once := time.Since(start)
	reps := 1
	if once < min {
		reps = int(min / (once + 1))
		if reps < 1 {
			reps = 1
		}
		if reps > 2000 {
			reps = 2000
		}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	total := time.Since(start)
	return float64(total.Microseconds()) / float64(reps) / 1000.0, nil
}

// Measure runs all measurements for one benchmark program.
func Measure(p bench.Program, opts MeasureOptions) (*Metrics, error) {
	tab := term.NewTab()
	prog, err := parser.ParseProgram(tab, p.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.Name, err)
	}
	m := &Metrics{
		Name:  p.Name,
		Args:  prog.ArgPlaces(),
		Preds: prog.NumPreds(),
	}

	// Compile time (the PLM column) and the module used for analysis.
	mod, err := compiler.CompileWith(tab, prog, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.Name, err)
	}
	m.Size = mod.Size()
	m.CompileMS, err = timeIt(opts.MinSampleTime, func() error {
		_, err := compiler.CompileWith(tab, prog, compiler.DefaultOptions())
		return err
	})
	if err != nil {
		return nil, err
	}

	// Compiled analysis (Ours).
	res, err := core.NewWith(mod, opts.CoreConfig).AnalyzeMain()
	if err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", p.Name, err)
	}
	m.Exec = res.Steps
	m.TableSize = res.TableSize
	m.Iterations = res.Iterations
	if res.Metrics != nil {
		m.TableHits = res.Metrics.TableHits
		m.TableMisses = res.Metrics.TableMisses
		m.TableUpdates = res.Metrics.TableUpdates
		m.HeapCells = res.Metrics.HeapHighWater
	}
	m.OursMS, err = timeIt(opts.MinSampleTime, func() error {
		_, err := core.NewWith(mod, opts.CoreConfig).AnalyzeMain()
		return err
	})
	if err != nil {
		return nil, err
	}

	// Prolog-hosted analyzer (Aquarius stand-in).
	if !opts.SkipHosted {
		runner, err := plmeta.NewRunner(tab, prog)
		if err != nil {
			return nil, fmt.Errorf("%s: hosted: %w", p.Name, err)
		}
		m.HostedMS, err = timeIt(opts.MinSampleTime, func() error {
			_, _, _, err := runner.Run()
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Transformed-program analyzer (the paper's transforming approach).
	if !opts.SkipHosted {
		tr, err := transrun.NewRunner(tab, prog)
		if err != nil {
			return nil, fmt.Errorf("%s: transformed: %w", p.Name, err)
		}
		m.TransformedMS, err = timeIt(opts.MinSampleTime, func() error {
			_, _, _, err := tr.Run()
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Go meta-interpreter.
	if !opts.SkipMetaGo {
		m.MetaGoMS, err = timeIt(opts.MinSampleTime, func() error {
			_, err := baseline.New(tab, prog).AnalyzeMain()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// MeasureAll measures every Table 1 benchmark in order.
func MeasureAll(opts MeasureOptions) ([]*Metrics, error) {
	out := make([]*Metrics, 0, len(bench.Programs))
	for _, p := range bench.Programs {
		m, err := Measure(p, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// WriteTable1 renders the paper's Table 1 with our columns: the hosted
// Prolog analyzer stands in for Aquarius, our compiler for PLM.
func WriteTable1(w io.Writer, rows []*Metrics) {
	fmt.Fprintln(w, "Table 1: The Efficiency of Dataflow Analyzers (reproduction)")
	fmt.Fprintln(w, "  Hosted  = mode analyzer written in Prolog, run on the concrete WAM (Aquarius stand-in)")
	fmt.Fprintln(w, "  Compile = Prolog->WAM compilation (PLM stand-in)")
	fmt.Fprintln(w, "  Ours    = compiled abstract-WAM analyzer (types+modes+aliasing, k=4)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %5s %6s %10s %10s %6s %7s %10s %9s\n",
		"Benchmark", "Args", "Preds", "Hosted ms", "Compile ms", "Size", "Exec", "Ours ms", "Speed-Up")
	var sum float64
	n := 0
	for _, m := range rows {
		fmt.Fprintf(w, "%-10s %5d %6d %10.3f %10.3f %6d %7d %10.4f %9.1f\n",
			m.Name, m.Args, m.Preds, m.HostedMS, m.CompileMS, m.Size, m.Exec, m.OursMS, m.SpeedupHosted())
		sum += m.SpeedupHosted()
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "%-10s %62s %9.1f\n", "average", "", sum/float64(n))
	}
}

// WriteObservability renders the per-benchmark instrumentation columns:
// extension-table traffic and peak heap, the cost factors the aggregate
// Table 1 numbers hide.
func WriteObservability(w io.Writer, rows []*Metrics) {
	fmt.Fprintln(w, "Observability: extension-table traffic and working set (fixpoint phase)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %7s %7s %7s %8s %8s %10s\n",
		"Benchmark", "Exec", "Table", "Hits", "Misses", "Updates", "Heap cells")
	for _, m := range rows {
		fmt.Fprintf(w, "%-10s %7d %7d %7d %8d %8d %10d\n",
			m.Name, m.Exec, m.TableSize, m.TableHits, m.TableMisses, m.TableUpdates, m.HeapCells)
	}
}

// ConfigRatios is one configuration column of Table 2.
type ConfigRatios struct {
	Label  string
	Ratios []float64 // per benchmark: hosted-time / this-config-time
}

// WriteTable2 renders the Table 2 substitute: the paper's platform sweep
// becomes a configuration sweep, with per-benchmark speed ratios
// normalized to the hosted analyzer = 1 and the average "Index" row.
func WriteTable2(w io.Writer, rows []*Metrics, configs []ConfigRatios) {
	fmt.Fprintln(w, "Table 2: Speed ratios, hosted analyzer = 1 (configuration sweep")
	fmt.Fprintln(w, "replaces the 1992 hardware sweep; see DESIGN.md substitutions)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %8s", "Benchmark", "Hosted")
	for _, c := range configs {
		fmt.Fprintf(w, " %10s", c.Label)
	}
	fmt.Fprintln(w)
	sums := make([]float64, len(configs))
	for i, m := range rows {
		fmt.Fprintf(w, "%-10s %8.1f", m.Name, 1.0)
		for j, c := range configs {
			fmt.Fprintf(w, " %10.1f", c.Ratios[i])
			sums[j] += c.Ratios[i]
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-10s %8.1f", "average", 1.0)
	for j := range configs {
		fmt.Fprintf(w, " %10.1f", sums[j]/float64(len(rows)))
	}
	fmt.Fprintln(w)
}

// MeasureConfigs builds the Table 2 configuration sweep: for each
// analyzer configuration, per-benchmark speed ratios against the hosted
// analyzer.
func MeasureConfigs(opts MeasureOptions, rows []*Metrics) ([]ConfigRatios, error) {
	type cfgDef struct {
		label string
		cfg   core.Config
	}
	defs := []cfgDef{
		{"k=4", core.DefaultConfig()},
		{"k=2", core.Config{Depth: 2, Indexing: true}},
		{"k=8", core.Config{Depth: 8, Indexing: true}},
		{"no-index", core.Config{Depth: 4, Indexing: false}},
		{"worklist", core.Config{Depth: 4, Indexing: true, Strategy: core.StrategyWorklist}},
	}
	out := make([]ConfigRatios, 0, len(defs)+1)
	for _, d := range defs {
		c := ConfigRatios{Label: d.label, Ratios: make([]float64, len(rows))}
		for i, row := range rows {
			p, _ := bench.ByName(row.Name)
			tab := term.NewTab()
			prog, err := parser.ParseProgram(tab, p.Source)
			if err != nil {
				return nil, err
			}
			mod, err := compiler.Compile(tab, prog)
			if err != nil {
				return nil, err
			}
			ms, err := timeIt(opts.MinSampleTime, func() error {
				_, err := core.NewWith(mod, d.cfg).AnalyzeMain()
				return err
			})
			if err != nil {
				return nil, err
			}
			if ms > 0 {
				c.Ratios[i] = row.HostedMS / ms
			}
		}
		out = append(out, c)
	}
	// The Go meta-interpreter and the transformed program as final
	// columns.
	metaCol := ConfigRatios{Label: "meta-Go", Ratios: make([]float64, len(rows))}
	trCol := ConfigRatios{Label: "transfrm", Ratios: make([]float64, len(rows))}
	for i, row := range rows {
		if row.MetaGoMS > 0 {
			metaCol.Ratios[i] = row.HostedMS / row.MetaGoMS
		}
		if row.TransformedMS > 0 {
			trCol.Ratios[i] = row.HostedMS / row.TransformedMS
		}
	}
	out = append(out, trCol, metaCol)
	return out, nil
}

// AblationRow measures the depth-k precision/cost tradeoff (E9).
type AblationRow struct {
	Name      string
	Depth     int
	MS        float64
	TableSize int
	Exec      int64
	GroundPct float64 // fraction of success-pattern argument positions proven ground
}

// MeasureAblation sweeps the term-depth restriction.
func MeasureAblation(opts MeasureOptions, depths []int) ([]AblationRow, error) {
	var out []AblationRow
	for _, p := range bench.Programs {
		tab := term.NewTab()
		prog, err := parser.ParseProgram(tab, p.Source)
		if err != nil {
			return nil, err
		}
		mod, err := compiler.Compile(tab, prog)
		if err != nil {
			return nil, err
		}
		for _, k := range depths {
			cfg := core.Config{Depth: k, Indexing: true}
			res, err := core.NewWith(mod, cfg).AnalyzeMain()
			if err != nil {
				return nil, err
			}
			ms, err := timeIt(opts.MinSampleTime, func() error {
				_, err := core.NewWith(mod, cfg).AnalyzeMain()
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, AblationRow{
				Name: p.Name, Depth: k, MS: ms,
				TableSize: res.TableSize, Exec: res.Steps,
				GroundPct: groundFraction(tab, res),
			})
		}
	}
	return out, nil
}

func groundFraction(tab *term.Tab, res *core.Result) float64 {
	total, ground := 0, 0
	for _, e := range res.Entries {
		if e.Succ == nil {
			continue
		}
		for _, a := range e.Succ.Args {
			total++
			if isGroundArg(tab, a) {
				ground++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ground) / float64(total)
}

// WriteAblation renders the depth sweep.
func WriteAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation: term-depth restriction k (cost vs precision)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %4s %10s %7s %7s %8s\n", "Benchmark", "k", "ms", "Exec", "Table", "ground%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %4d %10.4f %7d %7d %7.1f%%\n",
			r.Name, r.Depth, r.MS, r.Exec, r.TableSize, 100*r.GroundPct)
	}
}

// SummaryLine gives a one-line digest used by tests.
func SummaryLine(rows []*Metrics) string {
	var b strings.Builder
	for _, m := range rows {
		fmt.Fprintf(&b, "%s=%.1fx ", m.Name, m.SpeedupHosted())
	}
	return strings.TrimSpace(b.String())
}
