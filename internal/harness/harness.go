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
	"text/tabwriter"

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
	Name  string `json:"name"`
	Args  int    `json:"args"`  // total argument places (paper's "Args")
	Preds int    `json:"preds"` // defined predicates (paper's "Preds")

	Size int   `json:"size"` // static WAM code size in instructions
	Exec int64 `json:"exec"` // abstract WAM instructions executed during analysis

	TableSize  int `json:"table_size"`
	Iterations int `json:"iterations"`

	// Extension-table traffic and peak working set during the compiled
	// analysis, from the observability layer (core.Result.Metrics).
	TableHits    int64 `json:"table_hits"`
	TableMisses  int64 `json:"table_misses"`
	TableUpdates int64 `json:"table_updates"`
	HeapCells    int   `json:"heap_cells"`

	// The legs of the row, measured together by Sample.
	Compile Stat `json:"compile"` // Prolog -> WAM compile time ("PLM" column stand-in)
	Ours    Stat `json:"ours"`    // compiled analyzer (internal/core)
	Hosted  Stat `json:"hosted"`  // Prolog-hosted analyzer on the WAM ("Aquarius" stand-in)
	// Transformed is the paper's "transforming approach": the analysis
	// partially evaluated into a Prolog program, run on the WAM.
	Transformed Stat `json:"transformed"`
	MetaGo      Stat `json:"meta_go"` // Go meta-interpreting analyzer (internal/baseline)

	// SpeedupHosted is the Table 1 speed-up factor: Prolog-hosted
	// analysis time over compiled analysis time, sample by sample.
	SpeedupHosted Dist `json:"speedup_hosted"`
}

// MeasureOptions tune the harness.
type MeasureOptions struct {
	// Quick selects the short sample plan (benchtab -quick).
	Quick bool
	// CoreConfig configures the compiled analyzer.
	CoreConfig core.Config
	// SkipHosted skips the (slowest) Prolog-hosted baseline and the
	// transformed program.
	SkipHosted bool
	// SkipMetaGo skips the Go meta-interpreter baseline.
	SkipMetaGo bool
}

// DefaultMeasureOptions uses the paper's analyzer configuration.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{CoreConfig: core.DefaultConfig()}
}

// Measure runs all measurements for one benchmark program: compile,
// Ours and the baselines are the legs of one Sample.
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
	mod, err := compiler.CompileWith(tab, prog, compiler.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.Name, err)
	}
	m.Size = mod.Size()

	var res *core.Result
	legs := []Leg{
		{Name: "compile", Run: func() error {
			_, err := compiler.CompileWith(tab, prog, compiler.DefaultOptions())
			return err
		}},
		{Name: "ours", Run: func() (err error) {
			res, err = core.NewWith(mod, opts.CoreConfig).AnalyzeMain()
			return err
		}},
	}
	into := []*Stat{&m.Compile, &m.Ours}
	if !opts.SkipHosted {
		hosted, err := plmeta.NewRunner(tab, prog)
		if err != nil {
			return nil, fmt.Errorf("%s: hosted: %w", p.Name, err)
		}
		tr, err := transrun.NewRunner(tab, prog)
		if err != nil {
			return nil, fmt.Errorf("%s: transformed: %w", p.Name, err)
		}
		legs = append(legs,
			Leg{Name: "hosted", Run: func() error { _, _, _, err := hosted.Run(); return err }},
			Leg{Name: "transformed", Run: func() error { _, _, _, err := tr.Run(); return err }})
		into = append(into, &m.Hosted, &m.Transformed)
	}
	if !opts.SkipMetaGo {
		legs = append(legs, Leg{Name: "meta-go", Run: func() error {
			_, err := baseline.New(tab, prog).AnalyzeMain()
			return err
		}})
		into = append(into, &m.MetaGo)
	}
	stats, err := Sample(opts.Quick, legs...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	for i, s := range stats {
		*into[i] = s
	}
	m.SpeedupHosted = ratio(m.Hosted, m.Ours)

	m.Exec = res.Steps
	m.TableSize = res.TableSize
	m.Iterations = res.Iterations
	if res.Metrics != nil {
		m.TableHits = res.Metrics.TableHits
		m.TableMisses = res.Metrics.TableMisses
		m.TableUpdates = res.Metrics.TableUpdates
		m.HeapCells = res.Metrics.HeapHighWater
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

// AverageSpeedup summarizes Table 1's average speed-up: sample i of the
// average is the mean over rows of each row's i-th Hosted/Ours quotient.
func AverageSpeedup(rows []*Metrics) Dist {
	var avg []float64
	for _, m := range rows {
		for i, x := range ratioSamples(m.Hosted, m.Ours) {
			if i == len(avg) {
				avg = append(avg, 0)
			}
			avg[i] += x / float64(len(rows))
		}
	}
	return summarize(avg)
}

// WriteTable1 renders the paper's Table 1 with our columns: the hosted
// Prolog analyzer stands in for Aquarius, our compiler for PLM.
func WriteTable1(w io.Writer, rows []*Metrics) {
	fmt.Fprintln(w, "Table 1: The Efficiency of Dataflow Analyzers (reproduction)")
	fmt.Fprintln(w, "  Hosted  = mode analyzer written in Prolog, run on the concrete WAM (Aquarius stand-in)")
	fmt.Fprintln(w, "  Compile = Prolog->WAM compilation (PLM stand-in)")
	fmt.Fprintln(w, "  Ours    = compiled abstract-WAM analyzer (types+modes+aliasing, k=4)")
	fmt.Fprintln(w, "  "+hostLine())
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Benchmark\tArgs\tPreds\tHosted ms\tCompile ms\tSize\tExec\tOurs ms\tSpeed-Up\t")
	for _, m := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s\t\n",
			m.Name, m.Args, m.Preds, m.Hosted.NsPerOp.format(1e6, 3), m.Compile.NsPerOp.format(1e6, 3),
			m.Size, m.Exec, m.Ours.NsPerOp.format(1e6, 4), m.SpeedupHosted.format(1, 1))
	}
	if len(rows) > 0 {
		fmt.Fprintf(tw, "average\t\t\t\t\t\t\t\t%s\t\n", AverageSpeedup(rows).format(1, 1))
	}
	tw.Flush()
}

// WriteObservability renders the per-benchmark instrumentation columns:
// extension-table traffic and peak heap, the cost factors the aggregate
// Table 1 numbers hide.
func WriteObservability(w io.Writer, rows []*Metrics) {
	fmt.Fprintln(w, "Observability: extension-table traffic and working set (fixpoint phase)")
	fmt.Fprintln(w, "  "+hostLine())
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
	Label string `json:"label"`
	// Ratios holds, per benchmark, hosted time over this configuration's
	// time, sample by sample.
	Ratios []Dist `json:"ratios"`
}

// WriteTable2 renders the Table 2 substitute: the paper's platform sweep
// becomes a configuration sweep, with per-benchmark speed ratios
// normalized to the hosted analyzer = 1 and the average "Index" row.
func WriteTable2(w io.Writer, rows []*Metrics, configs []ConfigRatios) {
	fmt.Fprintln(w, "Table 2: Speed ratios, hosted analyzer = 1 (configuration sweep")
	fmt.Fprintln(w, "replaces the 1992 hardware sweep; see DESIGN.md substitutions)")
	fmt.Fprintln(w, "  "+hostLine())
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "Benchmark\tHosted\t")
	for _, c := range configs {
		fmt.Fprintf(tw, "%s\t", c.Label)
	}
	fmt.Fprintln(tw)
	sums := make([]float64, len(configs))
	for i, m := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t", m.Name, 1.0)
		for j, c := range configs {
			fmt.Fprintf(tw, "%s\t", c.Ratios[i].format(1, 1))
			sums[j] += c.Ratios[i].Median
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "average\t%.1f\t", 1.0)
	for j := range configs {
		fmt.Fprintf(tw, "%.1f\t", sums[j]/float64(len(rows)))
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// MeasureConfigs builds the Table 2 configuration sweep: for each
// analyzer configuration, per-benchmark speed ratios against the hosted
// analyzer. The k=4, transformed and meta-Go columns reuse the Table 1
// rows' legs; the other configurations are the legs of one Sample per
// benchmark.
func MeasureConfigs(opts MeasureOptions, rows []*Metrics) ([]ConfigRatios, error) {
	defs := []struct {
		label string
		cfg   core.Config
	}{
		{"k=2", core.Config{Depth: 2, Indexing: true}},
		{"k=8", core.Config{Depth: 8, Indexing: true}},
		{"no-index", core.Config{Depth: 4, Indexing: false}},
		{"worklist", core.Config{Depth: 4, Indexing: true, Strategy: core.StrategyWorklist}},
	}
	out := []ConfigRatios{{Label: "k=4"}}
	for _, d := range defs {
		out = append(out, ConfigRatios{Label: d.label})
	}
	out = append(out, ConfigRatios{Label: "transfrm"}, ConfigRatios{Label: "meta-Go"})
	for _, row := range rows {
		p, _ := bench.ByName(row.Name)
		mod, err := compileBench(p)
		if err != nil {
			return nil, err
		}
		legs := make([]Leg, len(defs))
		for i, d := range defs {
			legs[i] = Leg{Name: d.label, Run: func() error {
				_, err := core.NewWith(mod, d.cfg).AnalyzeMain()
				return err
			}}
		}
		stats, err := Sample(opts.Quick, legs...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row.Name, err)
		}
		out[0].Ratios = append(out[0].Ratios, row.SpeedupHosted)
		for i, s := range stats {
			out[1+i].Ratios = append(out[1+i].Ratios, ratio(row.Hosted, s))
		}
		n := len(out)
		out[n-2].Ratios = append(out[n-2].Ratios, ratio(row.Hosted, row.Transformed))
		out[n-1].Ratios = append(out[n-1].Ratios, ratio(row.Hosted, row.MetaGo))
	}
	return out, nil
}

// AblationRow measures the depth-k precision/cost tradeoff (E9).
type AblationRow struct {
	Name      string  `json:"name"`
	Depth     int     `json:"depth"`
	Time      Stat    `json:"time"`
	TableSize int     `json:"table_size"`
	Exec      int64   `json:"exec"`
	GroundPct float64 `json:"ground_pct"` // fraction of success-pattern argument positions proven ground
}

// MeasureAblation sweeps the term-depth restriction; the depths are the
// legs of one Sample per benchmark.
func MeasureAblation(opts MeasureOptions, depths []int) ([]AblationRow, error) {
	var out []AblationRow
	for _, p := range bench.Programs {
		mod, err := compileBench(p)
		if err != nil {
			return nil, err
		}
		results := make([]*core.Result, len(depths))
		legs := make([]Leg, len(depths))
		for i, k := range depths {
			cfg := core.Config{Depth: k, Indexing: true}
			legs[i] = Leg{Name: fmt.Sprintf("k=%d", k), Run: func() (err error) {
				results[i], err = core.NewWith(mod, cfg).AnalyzeMain()
				return err
			}}
		}
		stats, err := Sample(opts.Quick, legs...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		for i, k := range depths {
			res := results[i]
			out = append(out, AblationRow{
				Name: p.Name, Depth: k, Time: stats[i],
				TableSize: res.TableSize, Exec: res.Steps,
				GroundPct: groundFraction(mod.Tab, res),
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
	fmt.Fprintln(w, "  "+hostLine())
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "Benchmark\tk\tms\tExec\tTable\tground%\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%.1f%%\t\n",
			r.Name, r.Depth, r.Time.NsPerOp.format(1e6, 4), r.Exec, r.TableSize, 100*r.GroundPct)
	}
	tw.Flush()
}

// SummaryLine gives a one-line digest used by tests.
func SummaryLine(rows []*Metrics) string {
	var b strings.Builder
	for _, m := range rows {
		fmt.Fprintf(&b, "%s=%.1fx ", m.Name, m.SpeedupHosted.Median)
	}
	return strings.TrimSpace(b.String())
}
